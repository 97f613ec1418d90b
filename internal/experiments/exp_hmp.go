package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"sperke/internal/abr"
	"sperke/internal/hmp"
	"sperke/internal/sphere"
	"sperke/internal/tiling"
	"sperke/internal/trace"
)

func init() {
	register("E7", hmpAccuracy)
	register("A6", tileCoverage)
}

// hmpAccuracy compares the §3.2 predictor family across horizons:
// static, linear extrapolation [16, 37], crowd-only, and the proposed
// data fusion, on held-out viewers of a crowd-annotated video.
func hmpAccuracy(seed int64) *Table {
	t := &Table{
		ID:      "E7",
		Title:   "§3.2 — HMP accuracy by predictor and horizon (held-out viewers)",
		Columns: []string{"horizon", "predictor", "mean err (°)", "p90 err (°)", "FoV hit rate"},
		Notes: []string{
			"on fixation-heavy 360° content the static baseline is strong at short horizons [16,37]",
			"crowd accuracy is horizon-independent: it overtakes personal motion once the horizon grows (§3.2)",
			"fusion tracks the personal predictors early and the crowd late",
			"hit rate = predicted view within half the FoV width of the truth",
		},
	}
	const dur = 60 * time.Second
	rng := rand.New(rand.NewSource(seed))
	att := trace.GenerateAttention(rand.New(rand.NewSource(seed+3)), dur)

	// Training crowd.
	pop := trace.NewPopulation(rng, 20)
	crowdTraces := pop.Sessions(rng, att, dur)
	heat := hmp.BuildHeatmap(tiling.NewViewport(tiling.GridCellular, sphere.DefaultFoV),
		2*time.Second, dur, crowdTraces)

	// Held-out evaluation viewers (same video, fresh individuals).
	evalPop := trace.NewPopulation(rand.New(rand.NewSource(seed+4)), 6)
	var holdouts []*trace.HeadTrace
	var profiles []trace.UserProfile
	for i, u := range evalPop.Users {
		userRNG := rand.New(rand.NewSource(seed + 100 + int64(i)))
		holdouts = append(holdouts, trace.Generate(userRNG, u, att, dur))
		profiles = append(profiles, u)
	}

	predictors := []struct {
		name string
		mk   func(u trace.UserProfile) func() hmp.Predictor
	}{
		{"static", func(trace.UserProfile) func() hmp.Predictor {
			return func() hmp.Predictor { return &hmp.Static{} }
		}},
		{"linear", func(trace.UserProfile) func() hmp.Predictor {
			return func() hmp.Predictor { return &hmp.LinearRegression{} }
		}},
		{"crowd", func(trace.UserProfile) func() hmp.Predictor {
			return func() hmp.Predictor { return &hmp.Crowd{Heatmap: heat} }
		}},
		{"fusion", func(u trace.UserProfile) func() hmp.Predictor {
			ctx := u.Context
			return func() hmp.Predictor {
				return &hmp.Fusion{Heatmap: heat, SpeedBound: 260 * u.SpeedScale, Context: &ctx}
			}
		}},
	}

	for _, horizon := range []time.Duration{200 * time.Millisecond, 500 * time.Millisecond, time.Second, 2 * time.Second, 4 * time.Second, 8 * time.Second} {
		for _, p := range predictors {
			// Aggregate across holdouts; fusion is personalized per user.
			var sumErr, sumP90, sumHit float64
			var n int
			for i, h := range holdouts {
				acc := hmp.Evaluate(p.mk(profiles[i]), h, sphere.DefaultFoV, horizon)
				if acc.Samples == 0 {
					continue
				}
				sumErr += acc.MeanError
				sumP90 += acc.P90Error
				sumHit += acc.HitRate
				n++
			}
			if n == 0 {
				continue
			}
			t.addRow(horizon.String(), p.name, sumErr/float64(n), sumP90/float64(n), sumHit/float64(n))
		}
	}
	return t
}

// tileCoverage is ablation A6: the §3.2 payoff measured operationally.
// Each predictor drives the real planning machinery (super chunk + OOS
// rings, heatmap-weighted) under a fixed tile budget; the score is the
// fraction of the viewer's actual FoV tiles that were fetched — the
// quantity that determines blanks and urgent fetches.
func tileCoverage(seed int64) *Table {
	t := &Table{
		ID:      "A6",
		Title:   "Ablation — FoV tile coverage at a fixed fetch budget, by predictor",
		Columns: []string{"horizon", "predictor", "coverage@12 tiles", "coverage@16 tiles"},
		Notes: []string{
			"coverage = share of the tiles actually visible at play time that the plan had fetched",
			"crowd-informed planning holds coverage at long horizons where motion extrapolation decays (§3.2)",
		},
	}
	const dur = 60 * time.Second
	g := tiling.GridCellular
	fov := sphere.DefaultFoV
	vp := tiling.NewViewport(g, fov)
	rng := rand.New(rand.NewSource(seed))
	att := trace.GenerateAttention(rand.New(rand.NewSource(seed+3)), dur)
	pop := trace.NewPopulation(rng, 20)
	crowd := pop.Sessions(rng, att, dur)
	heat := hmp.BuildHeatmap(vp, 2*time.Second, dur, crowd)
	holdout := trace.Generate(rand.New(rand.NewSource(seed+200)),
		trace.UserProfile{SpeedScale: 1.3}, att, dur)

	type pd struct {
		name string
		mk   func() hmp.Predictor
		heat *hmp.Heatmap
	}
	preds := []pd{
		{"static", func() hmp.Predictor { return &hmp.Static{} }, nil},
		{"linear", func() hmp.Predictor { return &hmp.LinearRegression{} }, nil},
		{"fusion+crowd", func() hmp.Predictor { return &hmp.Fusion{Heatmap: heat, SpeedBound: 300} }, heat},
	}

	coverage := func(p pd, horizon time.Duration, budget int) float64 {
		pred := p.mk()
		fed := 0
		var hits, total float64
		for at := time.Second; at+horizon < dur; at += 500 * time.Millisecond {
			for fed < len(holdout.Samples) && holdout.Samples[fed].At <= at {
				pred.Observe(holdout.Samples[fed])
				fed++
			}
			forecast := pred.Predict(at + horizon)
			fovTiles := vp.Visible(forecast.View)
			chosen := make(map[tiling.TileID]bool)
			for _, id := range fovTiles {
				chosen[id] = true
			}
			plan := abr.PlanOOS(abr.OOSInput{
				Grid: g, FoVTiles: fovTiles, FoVQuality: 4,
				Prediction: forecast, Heatmap: p.heat, At: at + horizon,
			}, abr.OOSPolicy{MaxRing: 3})
			for _, tq := range plan {
				if len(chosen) >= budget {
					break
				}
				chosen[tq.Tile] = true
			}
			actual := vp.Visible(holdout.At(at + horizon))
			for _, id := range actual {
				total++
				if chosen[id] {
					hits++
				}
			}
		}
		if total == 0 {
			return 0
		}
		return hits / total
	}

	for _, horizon := range []time.Duration{500 * time.Millisecond, 2 * time.Second, 4 * time.Second} {
		for _, p := range preds {
			t.addRow(horizon.String(), p.name,
				fmt.Sprintf("%.2f", coverage(p, horizon, 12)),
				fmt.Sprintf("%.2f", coverage(p, horizon, 16)))
		}
	}
	return t
}
