// Quickstart: describe a tiled 360° title, stream it to a synthetic
// viewer twice — FoV-guided (Sperke) and FoV-agnostic (today's
// platforms) — and compare bytes and quality.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"math/rand"
	"time"

	"sperke/internal/abr"
	"sperke/internal/core"
	"sperke/internal/media"
	"sperke/internal/netem"
	"sperke/internal/sim"
	"sperke/internal/tiling"
	"sperke/internal/trace"
	"sperke/internal/transport"
)

func main() {
	// 1. The content: a one-minute panoramic title, 4×6 tile grid,
	//    2-second chunks, six-level ladder (Fig. 2 organization).
	video := &media.Video{
		ID:             "quickstart",
		Duration:       time.Minute,
		ChunkDuration:  2 * time.Second,
		Grid:           tiling.GridCellular,
		ProjectionName: "equirectangular",
		Ladder:         media.DefaultLadder,
		Encoding:       media.EncodingAVC,
	}

	// 2. The viewer: a synthetic head-movement trace following the
	//    video's attention hotspots.
	rng := rand.New(rand.NewSource(7))
	att := trace.GenerateAttention(rand.New(rand.NewSource(8)), video.Duration+10*time.Second)
	head := trace.Generate(rng, trace.UserProfile{SpeedScale: 1}, att,
		video.Duration+10*time.Second)

	// 3. Stream twice over the same 20 Mbps link, holding quality at
	//    1080p so the byte comparison is direct.
	run := func(mode core.StreamMode) core.Report {
		clock := sim.NewClock(7)
		path := netem.NewPath(clock, "net", netem.Constant(20e6), 20*time.Millisecond, 0)
		session, err := core.NewSession(clock, core.Config{
			Video:     video,
			Mode:      mode,
			Algorithm: &abr.Fixed{Q: 4},
		}, head, transport.NewSinglePath(clock, path))
		if err != nil {
			panic(err)
		}
		return session.Run()
	}
	guided := run(core.FoVGuided)
	agnostic := run(core.FoVAgnostic)

	fmt.Println("Sperke quickstart — FoV-guided vs FoV-agnostic @1080p, 20 Mbps")
	fmt.Printf("%-14s %12s %12s %10s\n", "mode", "fetched", "FoV quality", "stalls")
	report := func(name string, r core.Report) {
		fmt.Printf("%-14s %9.1f MB %12.2f %10d\n",
			name, float64(r.BytesFetched)/1e6, r.QoE.MeanQuality(), r.QoE.Stalls)
	}
	report("fov-guided", guided)
	report("fov-agnostic", agnostic)
	saving := 1 - float64(guided.BytesFetched)/float64(agnostic.BytesFetched)
	fmt.Printf("\nFoV-guided tiling saved %.0f%% of the bytes (§2 cites 45%% [16], 60–80%% [37]).\n",
		saving*100)
}
