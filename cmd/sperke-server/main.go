// Command sperke-server runs the tiled DASH origin of Fig. 2 over real
// HTTP: manifests at /v/{video}/manifest.mpd and chunk segments at
// /v/{video}/c/{quality}/{tile}/{index} (append ?layer=1 for one SVC
// layer). Content is synthetic but deterministically sized by the
// Sperke rate model, so any client sees realistic chunk-size dynamics.
//
// Usage:
//
//	sperke-server -addr :8360
//	curl http://localhost:8360/v/demo/manifest.mpd
//	curl http://localhost:8360/metrics
//	sperke-server -debug-addr :6060   # pprof + expvar on a side port
package main

import (
	"context"
	_ "expvar"
	"flag"
	"fmt"
	"log/slog"
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
	addr := flag.String("addr", ":8360", "listen address")
	debugAddr := flag.String("debug-addr", "", "listen address for pprof/expvar debug endpoints (empty = disabled)")
	dur := flag.Duration("duration", 2*time.Minute, "demo video duration")
	chunk := flag.Duration("chunk", 2*time.Second, "chunk duration")
	rows := flag.Int("rows", 4, "tile grid rows")
	cols := flag.Int("cols", 6, "tile grid columns")
	enc := flag.String("encoding", "SVC", "encoding of the demo video: AVC or SVC")
	storeMB := flag.Int("store-budget-mb", 256, "sharded chunk store byte budget in MiB")
	storeShards := flag.Int("store-shards", 16, "chunk store shard count (rounded up to a power of two)")
	flag.Parse()

	log := slog.New(slog.NewTextHandler(os.Stderr, nil))

	encoding := media.EncodingAVC
	if *enc == "SVC" {
		encoding = media.EncodingSVC
	} else if *enc != "AVC" {
		fmt.Fprintf(os.Stderr, "unknown encoding %q\n", *enc)
		os.Exit(2)
	}

	catalog := dash.NewCatalog()
	videos := []*media.Video{
		{
			ID:             "demo",
			Duration:       *dur,
			ChunkDuration:  *chunk,
			Grid:           tiling.Grid{Rows: *rows, Cols: *cols},
			ProjectionName: "equirectangular",
			Ladder:         media.DefaultLadder,
			Encoding:       encoding,
		},
		{
			ID:             "concert",
			Duration:       *dur,
			ChunkDuration:  *chunk,
			Grid:           tiling.GridPrototype,
			ProjectionName: "equirectangular",
			Ladder:         media.LiveLadder,
			Encoding:       media.EncodingAVC,
		},
	}
	for _, v := range videos {
		if err := catalog.Add(v); err != nil {
			log.Error("adding video", "id", v.ID, "err", err)
			os.Exit(1)
		}
		log.Info("serving video", "id", v.ID, "chunks", v.NumChunks(),
			"tiles", v.Grid.Tiles(), "encoding", v.Encoding.String())
	}

	reg := obs.Default()
	reg.PublishExpvar("sperke")

	store := serve.NewCatalogStore(catalog, serve.StoreConfig{
		Shards:      *storeShards,
		BudgetBytes: int64(*storeMB) << 20,
		Obs:         reg,
	})
	dashSrv := dash.NewServer(catalog,
		dash.WithLogger(log), dash.WithObs(reg), dash.WithStore(store))
	log.Info("chunk store", "shards", store.Shards(), "budget_mb", *storeMB)
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/", dashSrv)

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

	srv := dash.NewHTTPServer(mux)
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
	log.Info("sperke-server listening", "addr", *addr)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Error("server exited", "err", err)
		os.Exit(1)
	}
}
