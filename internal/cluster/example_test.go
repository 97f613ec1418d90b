package cluster_test

import (
	"context"
	"fmt"
	"time"

	"sperke/internal/cluster"
	"sperke/internal/obs"
	"sperke/internal/serve"
	"sperke/internal/sim"
)

// origin synthesizes a chunk's body from its address and counts the
// fetches that reach it.
type origin struct{ fetches int }

func (o *origin) Chunk(ctx context.Context, videoID string, q, tile, idx int, layer bool) ([]byte, error) {
	o.fetches++
	return []byte(fmt.Sprintf("%s/q%d/t%d/i%d", videoID, q, tile, idx)), nil
}

// ExampleNew runs three edges in front of one origin through one kill
// and one recover, on a virtual clock: the dead edge's keys reroute to
// their next owners, and after its cooldown two clean probes re-admit
// it.
func ExampleNew() {
	clock := sim.NewClock(1)
	reg := obs.NewRegistry()
	org := &origin{}
	c, err := cluster.New(org, cluster.WithNodes(3), cluster.WithClock(clock), cluster.WithObs(reg),
		cluster.WithHealth(cluster.HealthConfig{FailThreshold: 1, ProbeSuccesses: 2, Cooldown: time.Second}))
	if err != nil {
		panic(err)
	}
	defer c.Close()

	keys := make([]serve.ChunkKey, 12)
	for i := range keys {
		keys[i] = serve.ChunkKey{Video: "demo", Quality: i % 3, Tile: i}
	}
	fetchAll := func(label string) {
		before := org.fetches
		for _, k := range keys {
			if _, err := c.Chunk(context.Background(), k.Video, k.Quality, k.Tile, k.Index, k.Layer); err != nil {
				panic(err)
			}
		}
		fmt.Printf("%-9s origin fetches %2d  reroutes %2d  alive(edge-1) %d\n", label, org.fetches-before,
			reg.Counter("cluster.reroutes").Value(), reg.Gauge("cluster.health.edge-1.alive").Value())
	}
	fetchAll("cold")
	fetchAll("warm")
	c.KillNode("edge-1")
	fetchAll("killed")
	c.RecoverNode("edge-1")
	for at := 500 * time.Millisecond; at <= 2*time.Second; at += 500 * time.Millisecond {
		clock.RunUntil(at)
		c.ProbeAll()
	}
	fetchAll("recovered")
	fetchAll("warm")
	fmt.Printf("down %d, up %d\n", reg.Counter("cluster.health.down_transitions").Value(),
		reg.Counter("cluster.health.up_transitions").Value())
	// Output:
	// cold      origin fetches 12  reroutes  0  alive(edge-1) 1
	// warm      origin fetches  0  reroutes  0  alive(edge-1) 1
	// killed    origin fetches  4  reroutes  4  alive(edge-1) 0
	// recovered origin fetches  4  reroutes  4  alive(edge-1) 1
	// warm      origin fetches  0  reroutes  4  alive(edge-1) 1
	// down 1, up 1
}
