// Command sperke-collector runs the §3.2 telemetry aggregation service:
// player apps POST compact head-movement records and clients GET
// per-video crowd heatmaps that drive FoV-guided prefetching.
//
//	sperke-collector -addr :8361
//	curl -s --data-binary @session.sptl http://localhost:8361/t/my-video
//	curl -s http://localhost:8361/t/my-video/heatmap?chunkms=2000 | jq .
package main

import (
	"context"
	"flag"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sperke/internal/dash"
	"sperke/internal/sphere"
	"sperke/internal/telemetry"
	"sperke/internal/tiling"
)

func main() {
	addr := flag.String("addr", ":8361", "listen address")
	rows := flag.Int("rows", 4, "heatmap tile grid rows")
	cols := flag.Int("cols", 6, "heatmap tile grid columns")
	maxSessions := flag.Int("max-sessions", 1000, "retained sessions per video")
	flag.Parse()

	log := slog.New(slog.NewTextHandler(os.Stderr, nil))
	c := telemetry.NewCollector(tiling.Grid{Rows: *rows, Cols: *cols}, sphere.DefaultFoV)
	c.MaxSessionsPerVideo = *maxSessions

	srv := dash.NewHTTPServer(c)
	srv.Addr = *addr
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		log.Info("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(shutdownCtx)
	}()
	log.Info("sperke-collector listening", "addr", *addr,
		"grid", tiling.Grid{Rows: *rows, Cols: *cols}.Tiles())
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Error("collector exited", "err", err)
		os.Exit(1)
	}
}
