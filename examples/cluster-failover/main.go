// Cluster-failover: the fault-tolerant edge/origin tier end to end on
// a virtual clock. Three edge caches rendezvous-route a tiled video's
// chunks in front of one origin; a scripted fault plan crashes edge-1
// mid-run and restarts it five seconds later. The probe loop declares
// the node down, its keys fail over to their next-ranked edges (and
// only those keys move), the origin absorbs the cold refill, and once
// probes re-admit the recovered node the routing — and the origin
// offload ratio — return to the pre-outage steady state.
//
//	go run ./examples/cluster-failover
package main

import (
	"context"
	"fmt"
	"time"

	"sperke/internal/cluster"
	"sperke/internal/faults"
	"sperke/internal/obs"
	"sperke/internal/serve"
	"sperke/internal/sim"
)

// origin synthesizes chunk bodies deterministically and counts how
// often the edge tier falls through to it.
type origin struct{ fetches int }

func (o *origin) Chunk(ctx context.Context, videoID string, q, tile, idx int, layer bool) ([]byte, error) {
	o.fetches++
	return []byte(fmt.Sprintf("%s/q%d/t%d/i%d", videoID, q, tile, idx)), nil
}

func main() {
	clock := sim.NewClock(7)
	reg := obs.NewRegistry()
	org := &origin{}
	// The failure detector runs at its defaults: a node is down after 3
	// consecutive failures, sits out a 500ms cooldown, and is back after
	// 2 clean probes.
	c, err := cluster.New(org,
		cluster.WithNodes(3),
		cluster.WithClock(clock),
		cluster.WithObs(reg),
	)
	if err != nil {
		panic(err)
	}

	// The chaos script, in the same grammar loadgen flags use: crash
	// edge-1 at 6s, restart it at 11s.
	plan := faults.MustParse("node:edge-1:6s:5s")
	if err := plan.ApplyNodes(clock, c); err != nil {
		panic(err)
	}

	// A viewer's working set: 48 chunk keys spread over the tile grid.
	keys := make([]serve.ChunkKey, 48)
	for i := range keys {
		keys[i] = serve.ChunkKey{Video: "demo", Quality: i % 3, Tile: i % 12, Index: i / 12}
	}
	owners := map[string]int{}
	for _, k := range keys {
		owners[cluster.Rank(k, c.NodeNames())[0]]++
	}
	fmt.Printf("rendezvous placement over 3 edges: %v\n\n", owners)

	// Tick loop on the virtual clock: every 500ms fetch the working set;
	// the probe pump runs at 4 Hz in between.
	for at := 250 * time.Millisecond; at <= 16*time.Second; at += 250 * time.Millisecond {
		clock.Schedule(at, c.ProbeAll)
	}
	fmt.Println("   t     reroutes  origin  alive(edge-1)  offload")
	prevFetch := 0
	for tick := time.Duration(0); tick <= 16*time.Second; tick += 500 * time.Millisecond {
		clock.RunUntil(tick)
		errs := 0
		for _, k := range keys {
			if _, err := c.Chunk(context.Background(), k.Video, k.Quality, k.Tile, k.Index, k.Layer); err != nil {
				errs++
			}
		}
		if errs > 0 {
			fmt.Printf("%6s  %d FAILED FETCHES\n", tick, errs)
			continue
		}
		if tick%(2*time.Second) != 0 {
			continue
		}
		fmt.Printf("%6s  %8d  %6d  %13d  %6.1f%%\n",
			tick,
			reg.Counter("cluster.reroutes").Value(),
			org.fetches-prevFetch,
			reg.Gauge("cluster.health.edge-1.alive").Value(),
			c.OffloadPercent())
		prevFetch = org.fetches
	}

	fmt.Printf("\nafter the kill/recover cycle:\n")
	fmt.Printf("  down transitions %d, up transitions %d\n",
		reg.Counter("cluster.health.down_transitions").Value(),
		reg.Counter("cluster.health.up_transitions").Value())
	for _, n := range c.Nodes() {
		fmt.Printf("  %s: %d hits, %d misses\n", n.ID(), n.Hits(), n.Misses())
	}
	req, fetches := c.OffloadCounts()
	fmt.Printf("  %d front-door requests, %d origin fetches: the edge tier absorbed %.1f%%\n",
		req, fetches, c.OffloadPercent())
}
