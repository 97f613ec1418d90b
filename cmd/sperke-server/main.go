// Command sperke-server runs the tiled DASH origin of Fig. 2 over real
// HTTP: manifests at /v/{video}/manifest.mpd and chunk segments at
// /v/{video}/c/{quality}/{tile}/{index} (append ?layer=1 for one SVC
// layer). Content is synthetic but deterministically sized by the
// Sperke rate model, so any client sees realistic chunk-size dynamics.
// It serves two 2-minute videos of 2 s chunks: demo (SVC, 4×6 tiles,
// the default ladder) and concert (AVC, the prototype grid, the live
// ladder), from a 16-shard chunk store. On SIGINT or SIGTERM it stops
// accepting and returns once the responses in flight are written (5 s
// at most).
//
// Usage:
//
//	sperke-server -addr :8360
//	curl http://localhost:8360/v/demo/manifest.mpd
//	curl http://localhost:8360/metrics
//	sperke-server -debug-addr :6060   # pprof + expvar on a side port
//	sperke-loadgen -url http://localhost:8360
package main

import (
	"context"
	"errors"
	_ "expvar"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sperke/internal/dash"
	"sperke/internal/media"
	"sperke/internal/obs"
	"sperke/internal/serve"
	"sperke/internal/tiling"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// storeShards is the chunk store's shard count; shutdownGrace bounds
// how long a shutdown waits for the responses in flight.
const (
	storeShards   = 16
	shutdownGrace = 5 * time.Second
)

// videos is the catalog: every title is 2 minutes of 2 s chunks.
func videos() []*media.Video {
	return []*media.Video{
		{
			ID:             "demo",
			Duration:       2 * time.Minute,
			ChunkDuration:  2 * time.Second,
			Grid:           tiling.GridCellular,
			ProjectionName: "equirectangular",
			Ladder:         media.DefaultLadder,
			Encoding:       media.EncodingSVC,
		},
		{
			ID:             "concert",
			Duration:       2 * time.Minute,
			ChunkDuration:  2 * time.Second,
			Grid:           tiling.GridPrototype,
			ProjectionName: "equirectangular",
			Ladder:         media.LiveLadder,
			Encoding:       media.EncodingAVC,
		},
	}
}

// run serves until ctx ends, then shuts the listener down and returns
// once the responses in flight are written.
func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("sperke-server", flag.ContinueOnError)
	addr := fs.String("addr", ":8360", "listen address")
	debugAddr := fs.String("debug-addr", "", "listen address for pprof/expvar debug endpoints (empty = disabled)")
	storeMB := fs.Int("store-budget-mb", 256, "sharded chunk store byte budget in MiB")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *storeMB < 1 {
		return fmt.Errorf("-store-budget-mb must be at least 1")
	}

	log := slog.New(slog.NewTextHandler(os.Stderr, nil))
	catalog := dash.NewCatalog()
	for _, v := range videos() {
		if err := catalog.Add(v); err != nil {
			return err
		}
		log.Info("serving video", "id", v.ID, "chunks", v.NumChunks(),
			"tiles", v.Grid.Tiles(), "encoding", v.Encoding.String())
	}

	reg := obs.Default()
	reg.PublishExpvar("sperke")
	store := serve.NewCatalogStore(catalog, serve.StoreConfig{
		Shards:      storeShards,
		BudgetBytes: int64(*storeMB) << 20,
		Obs:         reg,
	})
	log.Info("chunk store", "shards", store.Shards(), "budget_mb", *storeMB)
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/", dash.NewServer(catalog, dash.WithObs(reg), dash.WithStore(store)))

	if *debugAddr != "" {
		// net/http/pprof and expvar register /debug/pprof and /debug/vars
		// on http.DefaultServeMux via their imports; serving it on a side
		// port keeps debug endpoints off the content-facing listener.
		go func() {
			log.Info("debug endpoints listening", "addr", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				log.Error("debug server exited", "err", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := dash.NewHTTPServer(mux)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	log.Info("sperke-server listening", "addr", ln.Addr().String())
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	// Serve has already returned ErrServerClosed when Shutdown starts
	// waiting; the process must outlive the wait, not that return.
	log.Info("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	return srv.Shutdown(shutdownCtx)
}
