// Command sperke-loadgen drives K concurrent simulated viewers against
// one tiled DASH origin, exercising the sharded chunk store under real
// HTTP concurrency while each viewer's QoE stays seed-deterministic.
// It prints aggregate QoE, the fetch-latency distribution and the chunk
// store's hit/miss accounting — the E19 loadgen sweep.
//
// Usage:
//
//	sperke-loadgen                      # 8 viewers, in-process origin
//	sperke-loadgen -sessions 32 -workers 8
//	sperke-loadgen -url http://host:8360  # aim at a sperke-server
//	sperke-loadgen -no-http             # pure simulation, no HTTP leg
//	sperke-loadgen -nodes 3             # edge/origin cluster topology
//	sperke-loadgen -nodes 3 -kill-at 10s -recover-at 20s  # chaos run
//	sperke-loadgen -nodes 3 -wire -replicas 2  # real listeners, R=2
//	sperke-loadgen -nodes 3 -add-node-at 15s   # live membership growth
//
// Each viewer streams FoV-guided, over a 25 Mbit/s emulated link, a
// video named demo of 2 s AVC chunks in 4×6 tiles: the grid and chunk
// length of sperke-server's demo. The in-process origin's store has 16
// shards, each edge's 8.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sperke/internal/cluster"
	"sperke/internal/dash"
	"sperke/internal/hmp"
	"sperke/internal/media"
	"sperke/internal/obs"
	"sperke/internal/serve"
	"sperke/internal/sphere"
	"sperke/internal/tiling"
	"sperke/internal/trace"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// killNode is the edge -kill-at crashes.
const killNode = "edge-1"

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("sperke-loadgen", flag.ContinueOnError)
	sessions := fs.Int("sessions", 8, "number of simulated viewers")
	workers := fs.Int("workers", 0, "concurrent sessions (0 = GOMAXPROCS)")
	seed := fs.Int64("seed", 42, "base seed; viewer i uses seed+i")
	dur := fs.Duration("duration", 60*time.Second, "video duration")
	url := fs.String("url", "", "external origin URL (empty = in-process origin)")
	noHTTP := fs.Bool("no-http", false, "skip the HTTP leg; pure simulation")
	storeMB := fs.Int("store-budget-mb", 256, "in-process store byte budget in MiB")
	nodes := fs.Int("nodes", 0, "edge nodes in front of the origin (0 = no cluster tier)")
	wire := fs.Bool("wire", false, "run each edge as a real HTTP process on its own loopback listener")
	replicas := fs.Int("replicas", 1, "rendezvous owners per chunk key (R>1 = replication)")
	prewarm := fs.Int("prewarm", 0, "crowd-prior pre-warm fanout per served chunk (0 = off; needs -nodes)")
	addNodeAt := fs.Duration("add-node-at", 0, "grow the cluster by one edge this long into the run (0 = never)")
	killAt := fs.Duration("kill-at", 0, "crash "+killNode+" this long into the run (0 = never)")
	recoverAt := fs.Duration("recover-at", 0, "restart the killed node this long into the run (0 = never)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Refuse a number the run would replace with a default, and what the
	// run would ignore: a cluster flag without a cluster, a cluster with
	// no in-process origin to front.
	noCluster := *nodes == 0
	for _, f := range []struct {
		bad bool
		err string
	}{
		{*sessions < 1, "-sessions must be at least 1"},
		{*storeMB < 1, "-store-budget-mb must be at least 1"},
		{*workers < 0, "-workers must be 0 or more"},
		{*replicas < 1, "-replicas must be at least 1"},
		{*prewarm < 0, "-prewarm must be 0 or more"},
		{*nodes < 0, "-nodes must be 0 or more"},
		{!noCluster && (*url != "" || *noHTTP), "-nodes fronts the in-process origin; it cannot go with -url or -no-http"},
		{noCluster && *prewarm > 0, "-prewarm needs -nodes"},
		{noCluster && *wire, "-wire needs -nodes"},
		{noCluster && *replicas > 1, "-replicas needs -nodes"},
		{noCluster && *addNodeAt > 0, "-add-node-at needs -nodes"},
		{noCluster && *killAt > 0, "-kill-at needs -nodes"},
		{noCluster && *recoverAt > 0, "-recover-at needs -nodes"},
		{*recoverAt > 0 && (*killAt <= 0 || *recoverAt <= *killAt), fmt.Sprintf("-recover-at %v needs an earlier -kill-at", *recoverAt)},
	} {
		if f.bad {
			return errors.New(f.err)
		}
	}

	video := &media.Video{
		ID:             "demo",
		Duration:       *dur,
		ChunkDuration:  2 * time.Second,
		Grid:           tiling.GridCellular,
		ProjectionName: "equirectangular",
		Ladder:         media.DefaultLadder,
		Encoding:       media.EncodingAVC,
	}
	reg := obs.NewRegistry()

	var client *dash.Client
	var store *serve.Store
	var clu *cluster.Cluster
	if !*noHTTP {
		base := *url
		if base == "" {
			catalog := dash.NewCatalog()
			if err := catalog.Add(video); err != nil {
				return err
			}
			store = serve.NewCatalogStore(catalog, serve.StoreConfig{
				Shards:      16,
				BudgetBytes: int64(*storeMB) << 20,
				Obs:         reg,
			})
			var handler http.Handler
			if *nodes > 0 {
				// Cluster topology: N edge caches rendezvous-route in front
				// of the catalog store, which becomes the origin tier.
				opts := []cluster.Option{
					cluster.WithNodes(*nodes),
					cluster.WithCatalog(catalog),
					cluster.WithNodeBudget(int64(*storeMB) << 20 / int64(*nodes)),
					cluster.WithReplication(*replicas),
					cluster.WithWire(*wire),
					cluster.WithObs(reg),
				}
				if *prewarm > 0 {
					opts = append(opts, cluster.WithPrewarm(crowdPrior(video, *sessions, *seed), *prewarm))
				}
				var err error
				clu, err = cluster.New(store, opts...)
				if err != nil {
					return err
				}
				defer clu.Close()
				clu.StartProbes(ctx)
				handler = clu.FrontDoor()
				if *addNodeAt > 0 {
					time.AfterFunc(*addNodeAt, func() {
						n, err := clu.AddNode("")
						if err != nil {
							fmt.Printf("!! add node at +%v failed: %v\n", *addNodeAt, err)
							return
						}
						fmt.Printf("!! added %s at +%v\n", n.ID(), *addNodeAt)
					})
				}
				if *killAt > 0 {
					time.AfterFunc(*killAt, func() {
						fmt.Printf("!! killing %s at +%v\n", killNode, *killAt)
						clu.KillNode(killNode)
					})
					if *recoverAt > *killAt {
						time.AfterFunc(*recoverAt, func() {
							fmt.Printf("!! recovering %s at +%v\n", killNode, *recoverAt)
							clu.RecoverNode(killNode)
						})
					}
				}
			} else {
				handler = dash.NewServer(catalog, dash.WithObs(reg), dash.WithStore(store))
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return err
			}
			httpSrv := dash.NewHTTPServer(handler)
			go httpSrv.Serve(ln)
			defer httpSrv.Close()
			base = "http://" + ln.Addr().String()
			if clu != nil {
				form := "in-process"
				if clu.Wire() {
					form = "wire"
				}
				fmt.Printf("%s %d-edge cluster (R=%d) at %s (origin: %d shards, %d MiB budget)\n",
					form, *nodes, clu.Replication(), base, store.Shards(), *storeMB)
			} else {
				fmt.Printf("in-process origin at %s (%d shards, %d MiB budget)\n",
					base, store.Shards(), *storeMB)
			}
		}
		client = dash.NewClient(base, dash.WithClientObs(reg))
	}

	eng, err := serve.NewEngine(serve.EngineConfig{
		Video:    video,
		Sessions: *sessions,
		Workers:  *workers,
		BaseSeed: *seed,
		Client:   client,
		Obs:      reg,
	})
	if err != nil {
		return err
	}

	fmt.Printf("driving %d viewers over a 25 Mbit/s emulated link each\n", *sessions)
	res := eng.Run(ctx)

	for _, sr := range res.Sessions {
		if sr.Err != nil {
			return sr.Err
		}
	}
	a := res.Agg
	fmt.Printf("\ncompleted %d sessions in %v wall\n", a.Sessions, res.Wall.Round(time.Millisecond))
	fmt.Printf("  mean FoV quality %.2f   mean QoE score %.3f\n", a.MeanQuality, a.MeanScore)
	fmt.Printf("  stalls %d (%v)   blank %v   urgent fetches %d\n",
		a.Stalls, a.StallTime.Round(time.Millisecond), a.BlankTime.Round(time.Millisecond), a.UrgentFetches)
	fmt.Printf("  fetched %.1f MB (%.1f MB wasted)\n",
		float64(a.BytesFetched)/1e6, float64(a.BytesWasted)/1e6)
	if res.HTTPFetches > 0 {
		fl := res.FetchLatency
		fmt.Printf("  HTTP: %d fetches, %d errors; latency ms p50=%.2f p95=%.2f p99=%.2f\n",
			res.HTTPFetches, res.HTTPErrors, fl.P50, fl.P95, fl.P99)
	}
	if store != nil {
		hits := reg.Counter("serve.store.hits").Value()
		misses := reg.Counter("serve.store.misses").Value()
		shared := reg.Counter("serve.store.singleflight_shared").Value()
		tier := "store"
		if clu != nil {
			tier = "origin store" // the edges' stores are listed per node below
		}
		fmt.Printf("  %s: %d hits, %d misses, %d singleflight-shared, %d evictions, %.1f MB cached\n",
			tier, hits, misses, shared, reg.Counter("serve.store.evictions").Value(),
			float64(store.Bytes())/1e6)
	}
	if clu != nil {
		// Fence the pre-warm queue so the prewarm counters below are
		// exact, not a snapshot of a still-draining queue.
		clu.DrainWarms()
		printClusterSummary(clu, reg)
	}
	if res.HTTPErrors > 0 {
		return fmt.Errorf("%d of %d HTTP fetches failed", res.HTTPErrors, res.HTTPFetches)
	}
	return nil
}

// heldOutCrowd is what the pre-warm prior learns from: viewers N…2N−1
// of the recipe whose viewers 0…N−1 the run drives, so no run viewer
// shares their motion seed (seed+i) or attention seed (seed+i+60).
func heldOutCrowd(video *media.Video, sessions int, seed int64) []*trace.HeadTrace {
	return serve.SessionTraces(serve.EngineConfig{Video: video, Sessions: 2 * sessions, BaseSeed: seed})[sessions:]
}

// crowdPrior builds the pre-warm tier's heatmap from heldOutCrowd: the
// §3.2 correlation between viewers, not the run's own heads.
func crowdPrior(video *media.Video, sessions int, seed int64) *hmp.Heatmap {
	return hmp.BuildHeatmap(tiling.NewViewport(video.Grid, sphere.DefaultFoV),
		video.ChunkDuration, video.Duration, heldOutCrowd(video, sessions, seed))
}

func printClusterSummary(clu *cluster.Cluster, reg *obs.Registry) {
	req, fetches := clu.OffloadCounts()
	fmt.Printf("  cluster: %d requests, %d reroutes, %d sheds, %d warms, %d origin fallbacks, offload %.1f%%\n",
		req,
		reg.Counter("cluster.reroutes").Value(),
		reg.Counter("cluster.sheds").Value(),
		clu.Warms(),
		reg.Counter("cluster.origin_fallbacks").Value(),
		clu.OffloadPercent())
	fmt.Printf("    coalesced %d, warm drops %d, prewarms %d (%d origin syntheses)\n",
		clu.Coalesced(), clu.WarmDrops(), clu.Prewarms(), clu.PrewarmFetches())
	fmt.Printf("    health: %d down transitions, %d up transitions; origin fetches %d\n",
		reg.Counter("cluster.health.down_transitions").Value(),
		reg.Counter("cluster.health.up_transitions").Value(),
		fetches)
	for _, n := range clu.Nodes() {
		state := "up"
		if n.Down() {
			state = "down"
		}
		fmt.Printf("    %s [%s]: %d hits, %d misses, %d sheds, %.1f MB cached\n",
			n.ID(), state, n.Hits(), n.Misses(),
			reg.Counter("cluster.node."+n.ID()+".sheds").Value(),
			float64(n.Store().Bytes())/1e6)
	}
}
