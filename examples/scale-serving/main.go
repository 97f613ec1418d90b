// Scale-serving: the serving layer end to end. One DASH origin fronted
// by the sharded chunk store serves a crowd of concurrent simulated
// viewers driven by the worker-pool session engine; every viewer's QoE
// is a pure function of its seed (run it twice — the per-viewer numbers
// repeat exactly), while the store turns the crowd's overlapping
// FoV-guided access pattern into cache hits. Stdout carries what the
// seeds fix; the listener address, wall times, latencies and the
// hit/join split of the store's cached reads, which depend on goroutine
// interleaving, go to stderr.
//
//	go run ./examples/scale-serving
//	go run ./examples/scale-serving -viewers 16 -workers 8
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"sperke/internal/dash"
	"sperke/internal/media"
	"sperke/internal/obs"
	"sperke/internal/serve"
	"sperke/internal/tiling"
)

var (
	viewers = flag.Int("viewers", 8, "concurrent simulated viewers")
	workers = flag.Int("workers", 4, "worker-pool size")
	seed    = flag.Int64("seed", 360, "base seed; viewer i uses seed+i")
)

func main() {
	flag.Parse()
	if err := run(*viewers, *workers, *seed); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(viewers, workers int, seed int64) error {
	video := &media.Video{
		ID:             "stadium",
		Duration:       30 * time.Second,
		ChunkDuration:  2 * time.Second,
		Grid:           tiling.GridCellular,
		ProjectionName: "equirectangular",
		Ladder:         media.DefaultLadder,
		Encoding:       media.EncodingAVC,
	}

	// 1. One origin: catalog → sharded store → DASH server on loopback.
	//    The store fronts chunk synthesis with lock-striped LRU shards
	//    and singleflight miss de-duplication.
	catalog := dash.NewCatalog()
	if err := catalog.Add(video); err != nil {
		return err
	}
	reg := obs.NewRegistry()
	store := serve.NewCatalogStore(catalog, serve.StoreConfig{
		Shards:      8,
		BudgetBytes: 128 << 20,
		Obs:         reg,
	})
	srv := dash.NewServer(catalog, dash.WithObs(reg), dash.WithStore(store))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := dash.NewHTTPServer(srv)
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	fmt.Printf("origin: %d-shard store\n", store.Shards())
	fmt.Fprintf(os.Stderr, "origin listening on %s\n", ln.Addr())

	// 2. A crowd: the engine runs each viewer as a full core.Session on
	//    its own sim clock, mirroring every planned chunk fetch to the
	//    origin over real HTTP. The HTTP leg feeds only metrics, so QoE
	//    stays deterministic per seed no matter how many workers run.
	client := dash.NewClient("http://" + ln.Addr().String())
	eng, err := serve.NewEngine(serve.EngineConfig{
		Video:    video,
		Sessions: viewers,
		Workers:  workers,
		BaseSeed: seed,
		Client:   client,
		Obs:      reg,
	})
	if err != nil {
		return err
	}
	res := eng.Run(context.Background())

	// 3. Per-viewer QoE (seed-deterministic) and the serving-side story.
	fmt.Printf("\n%d viewers, %d workers:\n", viewers, workers)
	fmt.Fprintf(os.Stderr, "%v wall\n", res.Wall.Round(time.Millisecond))
	for _, sr := range res.Sessions {
		if sr.Err != nil {
			return sr.Err
		}
		m := sr.Report.QoE
		fmt.Printf("  viewer %2d (seed %3d): quality %.2f  stalls %d  fetched %5.1f MB\n",
			sr.Index, sr.Seed, m.MeanQuality(), m.Stalls,
			float64(sr.Report.BytesFetched)/1e6)
	}
	fl := res.FetchLatency
	fmt.Printf("\naggregate: quality %.2f, score %.1f\n", res.Agg.MeanQuality, res.Agg.MeanScore)
	fmt.Printf("HTTP: %d fetches, %d errors\n", res.HTTPFetches, res.HTTPErrors)
	fmt.Fprintf(os.Stderr, "HTTP latency p50 %.2f ms / p95 %.2f / p99 %.2f\n", fl.P50, fl.P95, fl.P99)
	// Every distinct chunk is one miss (the budget evicts nothing); a
	// repeat is a hit, or a singleflight join if it lands mid-synthesis.
	hits := reg.Counter("serve.store.hits").Value()
	joins := reg.Counter("serve.store.singleflight_shared").Value()
	misses := reg.Counter("serve.store.misses").Value()
	fmt.Printf("store: %d misses, %d repeats served from memory, %.1f MB resident\n",
		misses, hits+joins, float64(store.Bytes())/1e6)
	fmt.Fprintf(os.Stderr, "store: %d hits, %d singleflight joins\n", hits, joins)
	return nil
}
