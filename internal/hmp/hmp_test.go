package hmp

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"sperke/internal/sphere"
	"sperke/internal/tiling"
	"sperke/internal/trace"
)

// steadyYawTrace builds a trace rotating at a constant yaw rate.
func steadyYawTrace(rate float64, dur time.Duration) *trace.HeadTrace {
	h := &trace.HeadTrace{}
	for t := time.Duration(0); t <= dur; t += 20 * time.Millisecond {
		h.Samples = append(h.Samples, trace.Sample{
			At:   t,
			View: sphere.Orientation{Yaw: sphere.NormalizeYaw(rate * t.Seconds())},
		})
	}
	return h
}

func feed(p Predictor, h *trace.HeadTrace, upTo time.Duration) {
	for _, s := range h.Samples {
		if s.At > upTo {
			break
		}
		p.Observe(s)
	}
}

func TestStaticPredictsLastView(t *testing.T) {
	var p Static
	if got := p.Predict(time.Second); got.Radius != 180 {
		t.Fatal("unobserved static should be maximally uncertain")
	}
	p.Observe(trace.Sample{At: time.Second, View: sphere.Orientation{Yaw: 42}})
	got := p.Predict(2 * time.Second)
	if got.View.Yaw != 42 {
		t.Fatalf("yaw = %v, want 42", got.View.Yaw)
	}
	// Radius grows with horizon.
	if p.Predict(3*time.Second).Radius <= got.Radius {
		t.Fatal("radius did not grow with horizon")
	}
}

func TestLinearExtrapolatesConstantVelocity(t *testing.T) {
	h := steadyYawTrace(20, 5*time.Second)  // 20°/s
	p := LinearRegression{Persistence: 1e6} // pure extrapolation
	feed(&p, h, 3*time.Second)
	pred := p.Predict(4 * time.Second) // 1s ahead: expect yaw ≈ 80
	if d := sphere.AngularDistance(pred.View, sphere.Orientation{Yaw: 80}); d > 3 {
		t.Fatalf("prediction %v, want ≈ yaw 80 (err %v°)", pred.View, d)
	}
}

func TestLinearHandlesYawWraparound(t *testing.T) {
	// Rotating through the ±180° seam must not break the fit.
	h := steadyYawTrace(40, 10*time.Second)
	p := LinearRegression{Persistence: 1e6}
	feed(&p, h, 4700*time.Millisecond) // yaw ≈ 188 → wrapped to -172
	pred := p.Predict(5 * time.Second) // expect yaw ≈ 200 → -160
	want := sphere.Orientation{Yaw: -160}
	if d := sphere.AngularDistance(pred.View, want); d > 4 {
		t.Fatalf("wraparound prediction %v, want ≈%v (err %v°)", pred.View, want, d)
	}
}

func TestLinearBeatsStaticOnSmoothMotion(t *testing.T) {
	h := steadyYawTrace(30, 10*time.Second)
	horizon := time.Second
	lin := Evaluate(func() Predictor { return &LinearRegression{} }, h, sphere.DefaultFoV, horizon)
	sta := Evaluate(func() Predictor { return &Static{} }, h, sphere.DefaultFoV, horizon)
	if lin.MeanError >= sta.MeanError {
		t.Fatalf("linear %.1f° not better than static %.1f° on smooth motion", lin.MeanError, sta.MeanError)
	}
}

func TestLinearCapsExtrapolationSpeed(t *testing.T) {
	// A saccade inside the window should not fling the prediction.
	h := &trace.HeadTrace{}
	for t := time.Duration(0); t <= 400*time.Millisecond; t += 20 * time.Millisecond {
		yaw := 0.0
		if t >= 300*time.Millisecond {
			yaw = float64(t-300*time.Millisecond) / float64(100*time.Millisecond) * 40 // 400°/s burst
		}
		h.Samples = append(h.Samples, trace.Sample{At: t, View: sphere.Orientation{Yaw: yaw}})
	}
	var p LinearRegression
	feed(&p, h, 400*time.Millisecond)
	pred := p.Predict(1400 * time.Millisecond) // 1s ahead
	// Uncapped the fit would predict far beyond 160°; the cap holds it
	// to ≤ 120°/s → ≤ ~160° total; mainly assert it stays on-sphere and
	// radius reflects high uncertainty.
	if pred.Radius < 20 {
		t.Fatalf("saccade horizon radius %v too confident", pred.Radius)
	}
}

func TestLinearEmptyAndSingleSample(t *testing.T) {
	var p LinearRegression
	if p.Predict(time.Second).Radius != 180 {
		t.Fatal("empty predictor should be maximally uncertain")
	}
	p.Observe(trace.Sample{At: 0, View: sphere.Orientation{Yaw: 10}})
	pred := p.Predict(time.Second)
	if pred.View.Yaw != 10 {
		t.Fatalf("single-sample prediction yaw %v, want 10", pred.View.Yaw)
	}
}

// TestLinearRingIsTheWindow: after every Observe the ring holds, oldest
// first, exactly the samples of the last 500 ms, each with the yaw the
// unwrapping chain over the whole history gives it — what the compacted
// slices held, so Predict sums the same terms in the same order. The
// gaps between samples vary from 1 ms to 300 ms, so the window grows
// past 100 samples, shrinks and wraps around the ring.
func TestLinearRingIsTheWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var p LinearRegression
	var history []fitSample
	at := time.Duration(0)
	for k := 0; k < 5000; k++ {
		gap := 300 // half the time; the other half, bursts of 1–5 ms
		if k%500 >= 250 {
			gap = 5
		}
		at += time.Duration(1+rng.Intn(gap)) * time.Millisecond
		s := trace.Sample{At: at, View: sphere.Orientation{Yaw: rng.Float64()*360 - 180, Pitch: rng.Float64()*180 - 90}}
		yaw := s.View.Yaw
		if k > 0 {
			prev := history[k-1].yaw
			yaw = prev + sphere.NormalizeYaw(yaw-sphere.NormalizeYaw(prev))
		}
		history = append(history, fitSample{s, yaw})
		p.Observe(s)
		first := k
		for first > 0 && history[first-1].At >= at-fitWindow {
			first--
		}
		if p.n != k+1-first {
			t.Fatalf("sample %d: the ring holds %d samples, the window %d", k, p.n, k+1-first)
		}
		for i := range p.n {
			if got := *p.at(i); got != history[first+i] {
				t.Fatalf("sample %d: ring[%d] = %+v, want %+v", k, i, got, history[first+i])
			}
		}
	}
}

// TestLinearObserveSteadyStateAllocs pins the in-place eviction: once
// the window's ring has grown to fit it, Observe allocates nothing and
// keeps the ring, and the window still holds exactly the last 500 ms —
// the prediction equals a fresh predictor's that saw only those samples.
func TestLinearObserveSteadyStateAllocs(t *testing.T) {
	h := steadyYawTrace(25, 10*time.Second)
	var p LinearRegression
	const warm = 100 // 2 s of samples: four windows
	for _, s := range h.Samples[:warm] {
		p.Observe(s)
	}
	next := warm
	ring := &p.ring[0]
	allocs := testing.AllocsPerRun(300, func() {
		p.Observe(h.Samples[next])
		next++
	})
	// AllocsPerRun rounds down, and a ring regrown every few dozen calls
	// would pass it: also hold the ring in place.
	if allocs != 0 || &p.ring[0] != ring {
		t.Fatalf("Observe in steady state: %v allocs per call, ring moved: %v — want 0 and false",
			allocs, &p.ring[0] != ring)
	}
	last := h.Samples[next-1]
	var fresh LinearRegression
	for _, s := range h.Samples[:next] {
		if s.At >= last.At-500*time.Millisecond {
			fresh.Observe(s)
		}
	}
	// The fresh predictor unwraps yaw from its own first sample, so its
	// fit runs on yaws whole turns away: equal up to rounding, not bits.
	at := last.At + time.Second
	if got, want := p.Predict(at), fresh.Predict(at); sphere.AngularDistance(got.View, want.View) > 1e-6 || math.Abs(got.Radius-want.Radius) > 1e-9 {
		t.Fatalf("compacted window predicts %+v, the same samples fed fresh predict %+v", got, want)
	}
}

func buildTestHeatmap(t testing.TB, nUsers int) (*Heatmap, []*trace.HeadTrace, *trace.Attention) {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	att := trace.GenerateAttention(rand.New(rand.NewSource(22)), 30*time.Second)
	pop := trace.NewPopulation(rng, nUsers)
	sessions := pop.Sessions(rng, att, 30*time.Second)
	h := BuildHeatmap(tiling.NewViewport(tiling.GridCellular, sphere.DefaultFoV),
		2*time.Second, 30*time.Second, sessions)
	return h, sessions, att
}

func TestHeatmapProbabilitiesInRange(t *testing.T) {
	h, _, _ := buildTestHeatmap(t, 10)
	if h.Intervals() != 15 {
		t.Fatalf("intervals = %d, want 15", h.Intervals())
	}
	for i := 0; i < h.Intervals(); i++ {
		at := time.Duration(i) * 2 * time.Second
		var maxP float64
		for tile := tiling.TileID(0); int(tile) < h.Grid.Tiles(); tile++ {
			p := h.Probability(at, tile)
			if p < 0 || p > 1 {
				t.Fatalf("probability %v out of range", p)
			}
			if p > maxP {
				maxP = p
			}
		}
		if maxP == 0 {
			t.Fatalf("interval %d has no viewed tiles", i)
		}
	}
}

func TestHeatmapTopTilesOrdered(t *testing.T) {
	h, _, _ := buildTestHeatmap(t, 10)
	top := h.TopTiles(4*time.Second, 5)
	if len(top) != 5 {
		t.Fatalf("TopTiles returned %d", len(top))
	}
	for i := 1; i < len(top); i++ {
		if h.Probability(4*time.Second, top[i]) > h.Probability(4*time.Second, top[i-1]) {
			t.Fatal("TopTiles not ordered by probability")
		}
	}
	if h.TopTiles(0, 0) != nil {
		t.Fatal("TopTiles(k=0) not nil")
	}
}

func TestHeatmapTopTilesAtMatchesTopTiles(t *testing.T) {
	h, _, _ := buildTestHeatmap(t, 10)
	// Chunk index i addresses the same interval as playhead i·ChunkDur,
	// so the int-keyed form must agree with the time-keyed ranking on
	// its (possibly shorter — TopTilesAt drops zero-probability tiles)
	// prefix, and every tile it returns must have been viewed.
	for idx := 0; idx < h.Intervals(); idx++ {
		byIndex := h.TopTilesAt(idx, 5)
		at := time.Duration(idx) * 2 * time.Second
		byTime := h.TopTiles(at, 5)
		if len(byIndex) > len(byTime) {
			t.Fatalf("index %d: %d tiles by index, only %d by time", idx, len(byIndex), len(byTime))
		}
		for i := range byIndex {
			if tiling.TileID(byIndex[i]) != byTime[i] {
				t.Fatalf("index %d rank %d: tile %d by index, %d by time", idx, i, byIndex[i], byTime[i])
			}
			if h.Probability(at, byTime[i]) == 0 {
				t.Fatalf("index %d rank %d: zero-probability tile %d returned", idx, i, byIndex[i])
			}
		}
	}
	// Most-viewed first, ties toward lower IDs.
	top := h.TopTilesAt(2, h.Grid.Tiles())
	for i := 1; i < len(top); i++ {
		pa, pb := h.prob[2][top[i-1]], h.prob[2][top[i]]
		if pb > pa || (pb == pa && top[i] < top[i-1]) {
			t.Fatalf("rank %d: tile %d (p=%v) ordered after tile %d (p=%v)", i, top[i-1], pa, top[i], pb)
		}
	}
	// Out-of-range indexes clamp; k truncates and never over-asks.
	if got, want := h.TopTilesAt(-3, 4), h.TopTilesAt(0, 4); !equalInts(got, want) {
		t.Fatalf("negative index = %v, want clamp to first interval %v", got, want)
	}
	if got, want := h.TopTilesAt(999, 4), h.TopTilesAt(h.Intervals()-1, 4); !equalInts(got, want) {
		t.Fatalf("overlong index = %v, want clamp to last interval %v", got, want)
	}
	viewed := 0
	for _, p := range h.prob[0] {
		if p > 0 {
			viewed++
		}
	}
	if got := h.TopTilesAt(0, h.Grid.Tiles()+10); len(got) != viewed {
		t.Fatalf("oversized k returned %d tiles, want the %d viewed ones", len(got), viewed)
	}
	if h.TopTilesAt(0, 0) != nil {
		t.Fatal("TopTilesAt(k=0) not nil")
	}
	empty := BuildHeatmap(tiling.NewViewport(tiling.GridPrototype, sphere.DefaultFoV),
		2*time.Second, 10*time.Second, nil)
	if empty.TopTilesAt(0, 3) != nil {
		t.Fatal("empty heatmap TopTilesAt not nil")
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBuildHeatmapAllocs: one interval of one session costs the
// heatmap's own tables and the two per-build scratch sets; its probes
// viewport queries mark into one of them and allocate nothing.
func TestBuildHeatmapAllocs(t *testing.T) {
	vp := tiling.NewViewport(tiling.GridCellular, sphere.DefaultFoV)
	sessions := []*trace.HeadTrace{steadyYawTrace(25, 2*time.Second)}
	// The Heatmap, prob and its one row, center, seen, counts.
	const budget = 6
	if n := testing.AllocsPerRun(100, func() { BuildHeatmap(vp, 2*time.Second, 2*time.Second, sessions) }); n > budget {
		t.Fatalf("BuildHeatmap of one interval and one session allocates %.0f objects, want at most %d", n, budget)
	}
}

func TestHeatmapEmptySessions(t *testing.T) {
	h := BuildHeatmap(tiling.NewViewport(tiling.GridPrototype, sphere.DefaultFoV),
		2*time.Second, 10*time.Second, nil)
	if h.Probability(0, 0) != 0 {
		t.Fatal("empty heatmap has nonzero probability")
	}
}

func TestHeatmapOutOfRangeClamped(t *testing.T) {
	h, _, _ := buildTestHeatmap(t, 5)
	// Probing far beyond the video clamps to the last interval.
	_ = h.Probability(time.Hour, 0)
	_ = h.CrowdCenter(-time.Second)
	if h.Probability(0, tiling.TileID(999)) != 0 {
		t.Fatal("invalid tile has probability")
	}
}

func TestCrowdPredictorTracksCrowd(t *testing.T) {
	h, sessions, _ := buildTestHeatmap(t, 12)
	// Evaluate the crowd predictor on a held-out user: it should beat
	// random (90° mean error) by a wide margin at long horizons.
	rng := rand.New(rand.NewSource(99))
	att2 := trace.GenerateAttention(rand.New(rand.NewSource(22)), 30*time.Second) // same video attention
	holdout := trace.Generate(rng, trace.UserProfile{SpeedScale: 1}, att2, 30*time.Second)
	_ = sessions
	acc := Evaluate(func() Predictor { return &Crowd{Heatmap: h} }, holdout, sphere.DefaultFoV, 2*time.Second)
	if acc.MeanError >= 85 {
		t.Fatalf("crowd predictor mean error %.1f°, no better than random", acc.MeanError)
	}
}

func TestFusionBeatsPartsAtLongHorizon(t *testing.T) {
	h, _, att := buildTestHeatmap(t, 12)
	rng := rand.New(rand.NewSource(123))
	user := trace.UserProfile{SpeedScale: 1}
	holdout := trace.Generate(rng, user, att, 30*time.Second)

	horizon := 2 * time.Second
	lin := Evaluate(func() Predictor { return &LinearRegression{} }, holdout, sphere.DefaultFoV, horizon)
	fus := Evaluate(func() Predictor {
		return &Fusion{Heatmap: h, SpeedBound: 240, Context: &user.Context}
	}, holdout, sphere.DefaultFoV, horizon)
	// Fusion must not be worse than pure linear at the 2s horizon where
	// crowd data carries signal.
	if fus.MeanError > lin.MeanError*1.05 {
		t.Fatalf("fusion %.1f° worse than linear %.1f° at long horizon", fus.MeanError, lin.MeanError)
	}
}

func TestFusionShortHorizonMatchesLinear(t *testing.T) {
	h, _, _ := buildTestHeatmap(t, 8)
	tr := steadyYawTrace(25, 10*time.Second)
	horizon := 200 * time.Millisecond
	lin := Evaluate(func() Predictor { return &LinearRegression{} }, tr, sphere.DefaultFoV, horizon)
	fus := Evaluate(func() Predictor { return &Fusion{Heatmap: h} }, tr, sphere.DefaultFoV, horizon)
	if diff := fus.MeanError - lin.MeanError; diff > 2 {
		t.Fatalf("fusion deviates from linear at short horizon by %.1f°", diff)
	}
}

func TestFusionSpeedBoundCapsDisplacement(t *testing.T) {
	f := &Fusion{SpeedBound: 10} // very slow user
	f.Observe(trace.Sample{At: 0, View: sphere.Orientation{Yaw: 0}})
	f.Observe(trace.Sample{At: 100 * time.Millisecond, View: sphere.Orientation{Yaw: 8}}) // 80°/s apparent
	pred := f.Predict(1100 * time.Millisecond)                                            // 1s horizon
	d := sphere.AngularDistance(sphere.Orientation{Yaw: 8}, pred.View)
	if d > 10.5 {
		t.Fatalf("displacement %v° exceeds speed bound 10°/s × 1s", d)
	}
}

func TestFusionContextClampsYaw(t *testing.T) {
	f := &Fusion{Context: &trace.Context{Pose: trace.Lying}} // yaw range ±110
	f.Observe(trace.Sample{At: 0, View: sphere.Orientation{Yaw: 100}})
	f.Observe(trace.Sample{At: 100 * time.Millisecond, View: sphere.Orientation{Yaw: 108}})
	pred := f.Predict(2100 * time.Millisecond)
	if pred.View.Yaw > 110.5 {
		t.Fatalf("lying context allowed yaw %v", pred.View.Yaw)
	}
}

func TestEvaluateAccuracyFields(t *testing.T) {
	h := steadyYawTrace(10, 10*time.Second)
	acc := Evaluate(func() Predictor { return &Static{} }, h, sphere.DefaultFoV, 500*time.Millisecond)
	if acc.Samples == 0 {
		t.Fatal("no samples evaluated")
	}
	if acc.MeanError <= 0 || acc.P90Error < acc.MeanError {
		t.Fatalf("suspicious accuracy: mean %v p90 %v", acc.MeanError, acc.P90Error)
	}
	if acc.HitRate <= 0 || acc.HitRate > 1 {
		t.Fatalf("hit rate %v out of range", acc.HitRate)
	}
}

func TestAccuracyDegradesWithHorizon(t *testing.T) {
	// Fundamental property (§3.2): prediction gets harder further out.
	rng := rand.New(rand.NewSource(31))
	att := trace.GenerateAttention(rand.New(rand.NewSource(32)), 60*time.Second)
	h := trace.Generate(rng, trace.UserProfile{SpeedScale: 1}, att, 60*time.Second)
	short := Evaluate(func() Predictor { return &LinearRegression{} }, h, sphere.DefaultFoV, 200*time.Millisecond)
	long := Evaluate(func() Predictor { return &LinearRegression{} }, h, sphere.DefaultFoV, 2*time.Second)
	if short.MeanError >= long.MeanError {
		t.Fatalf("short-horizon error %.1f° not below long-horizon %.1f°", short.MeanError, long.MeanError)
	}
	if short.HitRate <= long.HitRate {
		t.Fatalf("short-horizon hit rate %.2f not above long-horizon %.2f", short.HitRate, long.HitRate)
	}
}
