// Concert-live: a live 360° concert broadcast hits a degraded uplink.
// The broadcaster can keep dropping frames (today's behaviour), reduce
// the whole panorama's quality, or use Sperke's spatial fall-back
// (§3.4.2): keep full quality but upload only the horizon the crowd
// actually watches.
//
//	go run ./examples/concert-live
package main

import (
	"fmt"
	"math/rand"
	"time"

	"sperke/internal/live"
	"sperke/internal/sphere"
	"sperke/internal/tiling"
	"sperke/internal/trace"
)

func main() {
	// The audience: 200 viewers watching the stage (yaw ≈ 0), a handful
	// wandering. Their live head traces double as the crowd signal the
	// horizon planner uses.
	rng := rand.New(rand.NewSource(42))
	dur := 30 * time.Second
	// The performer crosses the stage at ~10°/s, so the crowd's gaze
	// drifts — exactly the motion a lagging viewer cannot anticipate
	// alone.
	att := &trace.Attention{Hotspots: []trace.Hotspot{{
		Center: sphere.Orientation{Yaw: -20}, Start: 0, Duration: dur, Pull: 0.95, Drift: 10,
	}}}
	var viewers []live.Viewer
	var views []sphere.Orientation
	for i := 0; i < 40; i++ {
		profile := trace.UserProfile{SpeedScale: 1, Context: trace.Context{Engaged: 0.95}}
		tr := trace.Generate(rand.New(rand.NewSource(int64(100+i))), profile, att, dur)
		viewers = append(viewers, live.Viewer{Trace: tr, Latency: time.Duration(8+i%20) * time.Second})
		views = append(views, tr.At(15*time.Second))
	}
	_ = rng

	// The crowd heatmap tells the planner where the audience looks.
	heat := live.LiveHeatmap(tiling.NewViewport(tiling.GridPrototype, sphere.DefaultFoV),
		2*time.Second, dur, viewers)
	crowdCenter := heat.CrowdCenter(15 * time.Second)
	fmt.Printf("crowd center at t=15s: %v\n\n", crowdCenter)

	fmt.Println("uplink drops to 50% of the source rate — the broadcaster's options:")
	fmt.Printf("%-18s %16s %14s\n", "mode", "FoV quality", "blanked views")
	plan := live.PlanHorizon(nil, heat, 15*time.Second, 0.5, 160)
	for _, mode := range []live.UploadMode{
		live.UploadFixed, live.UploadQualityReduce, live.UploadSpatialFallback,
	} {
		out := live.EvaluateFallback(mode, plan, 0.5, views, sphere.DefaultFoV)
		fmt.Printf("%-18s %16.2f %13.0f%%\n", mode, out.MeanFoVQuality, out.OutsideHorizonFrac*100)
	}
	fmt.Printf("\nplanned horizon: %.0f° centered at %v (floor 160° keeps the stage visible)\n",
		plan.SpanDeg, plan.Center)

	// Bonus: the same crowd predicts for a lagging viewer (§3.4.2's
	// second idea).
	lagger := live.Viewer{
		Trace: trace.Generate(rand.New(rand.NewSource(999)),
			trace.UserProfile{SpeedScale: 1, Context: trace.Context{Engaged: 0.9}}, att, dur),
		Latency: 40 * time.Second,
	}
	pred := &live.CrowdLivePredictor{Ahead: viewers, TargetLatency: lagger.Latency}
	rep := live.LiveHMPAccuracy(pred, lagger, sphere.DefaultFoV, dur, 6*time.Second)
	fmt.Printf("\ncrowd-sourced HMP for the lagging viewer (6s horizon, moving performer):\n")
	fmt.Printf("  static hit rate %.2f, crowd hit rate %.2f, recovery of misses %.2f\n",
		rep.StaticHit, rep.CrowdHit, rep.CrowdRecovery)
}
