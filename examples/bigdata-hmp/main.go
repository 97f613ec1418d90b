// Bigdata-hmp: the §3.2 pipeline end to end. A crowd of earlier viewers
// produces head traces for a video; Sperke aggregates them into a
// heatmap; a new viewer's session then uses crowd statistics to pick
// and prune OOS tiles — and the data-fusion predictor outperforms pure
// motion extrapolation at long horizons.
//
//	go run ./examples/bigdata-hmp
package main

import (
	"fmt"
	"math/rand"
	"time"

	"sperke/internal/abr"
	"sperke/internal/core"
	"sperke/internal/hmp"
	"sperke/internal/media"
	"sperke/internal/netem"
	"sperke/internal/sim"
	"sperke/internal/sphere"
	"sperke/internal/tiling"
	"sperke/internal/trace"
	"sperke/internal/transport"
)

func main() {
	video := &media.Video{
		ID:             "crowd-annotated",
		Duration:       time.Minute,
		ChunkDuration:  2 * time.Second,
		Grid:           tiling.GridCellular,
		ProjectionName: "equirectangular",
		Ladder:         media.DefaultLadder,
		Encoding:       media.EncodingAVC,
	}
	dur := video.Duration + 10*time.Second

	// 1. Crowd data: 25 earlier viewers of the same video (in deployment
	//    this is what the player app uploads — <5 Kbps per viewer, §3.2).
	rng := rand.New(rand.NewSource(3))
	att := trace.GenerateAttention(rand.New(rand.NewSource(4)), dur)
	pop := trace.NewPopulation(rng, 25)
	sessions := pop.Sessions(rng, att, dur)
	heat := hmp.BuildHeatmap(tiling.NewViewport(video.Grid, sphere.DefaultFoV),
		video.ChunkDuration, video.Duration, sessions)
	fmt.Printf("heatmap built from %d sessions, %d intervals\n", len(sessions), heat.Intervals())
	top := heat.TopTiles(10*time.Second, 3)
	fmt.Printf("most-watched tiles at t=10s: %v (p=%.2f, %.2f, %.2f)\n\n", top,
		heat.Probability(10*time.Second, top[0]),
		heat.Probability(10*time.Second, top[1]),
		heat.Probability(10*time.Second, top[2]))

	// 2. Predictor accuracy for a held-out viewer.
	user := trace.UserProfile{SpeedScale: 1}
	holdout := trace.Generate(rand.New(rand.NewSource(5)), user, att, dur)
	fmt.Println("held-out viewer, 4s prediction horizon:")
	for _, p := range []struct {
		name string
		mk   func() hmp.Predictor
	}{
		{"linear", func() hmp.Predictor { return &hmp.LinearRegression{} }},
		{"crowd", func() hmp.Predictor { return &hmp.Crowd{Heatmap: heat} }},
		{"fusion", func() hmp.Predictor {
			return &hmp.Fusion{Heatmap: heat, SpeedBound: 260, Context: &user.Context}
		}},
	} {
		acc := hmp.Evaluate(p.mk, holdout, sphere.DefaultFoV, 4*time.Second)
		fmt.Printf("  %-8s mean err %5.1f°, FoV hit rate %.2f\n", p.name, acc.MeanError, acc.HitRate)
	}

	// 3. Streaming with crowd-informed OOS pruning.
	run := func(h *hmp.Heatmap) core.Report {
		clock := sim.NewClock(6)
		path := netem.NewPath(clock, "net", netem.Constant(18e6), 20*time.Millisecond, 0)
		s, err := core.NewSession(clock, core.Config{
			Video:     video,
			Mode:      core.FoVGuided,
			Algorithm: &abr.Fixed{Q: 4},
			Heatmap:   h,
			OOS:       abr.OOSPolicy{MaxRing: 3, MinCrowdProb: 0.2},
		}, holdout, transport.NewSinglePath(clock, path))
		if err != nil {
			panic(err)
		}
		return s.Run()
	}
	with := run(heat)
	without := run(nil)
	fmt.Printf("\nsession with crowd pruning:    %.1f MB fetched, FoV quality %.2f\n",
		float64(with.BytesFetched)/1e6, with.QoE.MeanQuality())
	fmt.Printf("session without crowd data:    %.1f MB fetched, FoV quality %.2f\n",
		float64(without.BytesFetched)/1e6, without.QoE.MeanQuality())
	fmt.Printf("crowd statistics trimmed %.0f%% of the bytes at equal quality (§3.2).\n",
		(1-float64(with.BytesFetched)/float64(without.BytesFetched))*100)
}
