package trace

import (
	"math/rand"
	"testing"
	"time"

	"sperke/internal/sphere"
)

func genTrace(t *testing.T, seed int64, profile UserProfile, dur time.Duration) *HeadTrace {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	att := GenerateAttention(rand.New(rand.NewSource(seed+1000)), dur)
	return Generate(rng, profile, att, dur)
}

// velocityAt returns h's angular speed in degrees/second around ts,
// estimated over a 100 ms window.
func velocityAt(h *HeadTrace, ts time.Duration) float64 {
	const w = 50 * time.Millisecond
	return sphere.AngularDistance(h.At(ts-w), h.At(ts+w)) / (2 * w.Seconds())
}

// maxVelocity returns h's peak angular speed, sampled every 100 ms.
func maxVelocity(h *HeadTrace) float64 {
	var vmax float64
	for ts := time.Duration(0); ts <= h.Duration(); ts += 100 * time.Millisecond {
		vmax = max(vmax, velocityAt(h, ts))
	}
	return vmax
}

func TestHeadTraceAtEmptyAndClamp(t *testing.T) {
	var h HeadTrace
	if h.At(time.Second) != (sphere.Orientation{}) {
		t.Fatal("empty trace not zero orientation")
	}
	h.Samples = []Sample{
		{At: time.Second, View: sphere.Orientation{Yaw: 10}},
		{At: 2 * time.Second, View: sphere.Orientation{Yaw: 20}},
	}
	if h.At(0).Yaw != 10 {
		t.Fatal("before-start not clamped to first sample")
	}
	if h.At(time.Hour).Yaw != 20 {
		t.Fatal("after-end not clamped to last sample")
	}
}

func TestHeadTraceAtInterpolates(t *testing.T) {
	h := HeadTrace{Samples: []Sample{
		{At: 0, View: sphere.Orientation{Yaw: 0}},
		{At: time.Second, View: sphere.Orientation{Yaw: 10}},
	}}
	got := h.At(500 * time.Millisecond)
	if got.Yaw < 4.9 || got.Yaw > 5.1 {
		t.Fatalf("midpoint yaw = %v, want ≈5", got.Yaw)
	}
}

func TestGenerateSampleCountAndRate(t *testing.T) {
	h := genTrace(t, 1, UserProfile{SpeedScale: 1}, 10*time.Second)
	want := 10*sampleRate + 1
	if len(h.Samples) != want {
		t.Fatalf("samples = %d, want %d", len(h.Samples), want)
	}
	dt := h.Samples[1].At - h.Samples[0].At
	if dt != time.Second/sampleRate {
		t.Fatalf("sample interval = %v, want %v", dt, time.Second/sampleRate)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := genTrace(t, 5, UserProfile{SpeedScale: 1}, 5*time.Second)
	b := genTrace(t, 5, UserProfile{SpeedScale: 1}, 5*time.Second)
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatal("same-seed traces diverge")
		}
	}
}

func TestGenerateBoundedVelocity(t *testing.T) {
	h := genTrace(t, 2, UserProfile{SpeedScale: 1}, 30*time.Second)
	v := maxVelocity(h)
	if v <= 0 {
		t.Fatal("trace never moves")
	}
	// Saccade ceiling 220°/s at scale 1 (plus jitter slack).
	if v > 300 {
		t.Fatalf("max velocity %v°/s exceeds human bounds", v)
	}
}

func TestGenerateShortHorizonPredictability(t *testing.T) {
	// The core empirical property from [16,37]: over ~500 ms the view
	// usually moves only a few degrees — last-value prediction is mostly
	// inside a half-FoV.
	h := genTrace(t, 3, UserProfile{SpeedScale: 1}, 60*time.Second)
	within := 0
	total := 0
	for ts := time.Second; ts < 59*time.Second; ts += 200 * time.Millisecond {
		d := sphere.AngularDistance(h.At(ts), h.At(ts+500*time.Millisecond))
		total++
		if d < 30 {
			within++
		}
	}
	if frac := float64(within) / float64(total); frac < 0.8 {
		t.Fatalf("only %.0f%% of 500ms horizons within 30°, want ≥80%%", frac*100)
	}
}

func TestGenerateSpeedScaleMatters(t *testing.T) {
	slow := genTrace(t, 4, UserProfile{SpeedScale: 0.4}, 60*time.Second)
	fast := genTrace(t, 4, UserProfile{SpeedScale: 1.6}, 60*time.Second)
	if vs, vf := maxVelocity(slow), maxVelocity(fast); vs >= vf {
		t.Fatalf("slow user max %v not below fast user %v", vs, vf)
	}
}

func TestGenerateLyingYawRestricted(t *testing.T) {
	p := UserProfile{SpeedScale: 1, Context: Context{Pose: Lying}}
	h := genTrace(t, 6, p, 120*time.Second)
	for _, s := range h.Samples {
		if s.View.Yaw > 111 || s.View.Yaw < -111 {
			t.Fatalf("lying viewer reached yaw %v, beyond the §3.2 bound", s.View.Yaw)
		}
	}
}

func TestContextYawRange(t *testing.T) {
	if (Context{Pose: Lying}).YawRange() >= (Context{Pose: standing, headset: true}).YawRange() {
		t.Fatal("lying range not smaller than standing")
	}
}

func TestPoseString(t *testing.T) {
	if sitting.String() != "sitting" || Lying.String() != "lying" {
		t.Fatal("bad pose strings")
	}
	if Pose(9).String() != "pose(9)" {
		t.Fatal("bad unknown pose string")
	}
}

func TestAttentionSchedulesCoverDuration(t *testing.T) {
	att := GenerateAttention(rand.New(rand.NewSource(8)), time.Minute)
	if len(att.Hotspots) == 0 {
		t.Fatal("no hotspots generated")
	}
	// At several probe times there should be at least one active hotspot.
	for ts := time.Second; ts < 55*time.Second; ts += 5 * time.Second {
		if len(att.appendActive(nil, ts)) == 0 {
			t.Fatalf("no active hotspot at %v", ts)
		}
	}
}

func TestHotspotDrift(t *testing.T) {
	h := Hotspot{
		Center:   sphere.Orientation{Yaw: 0},
		Start:    0,
		Duration: 10 * time.Second,
		Drift:    5,
	}
	c, ok := h.activeAt(2 * time.Second)
	if !ok {
		t.Fatal("hotspot inactive at 2s")
	}
	if c.Yaw < 9.9 || c.Yaw > 10.1 {
		t.Fatalf("drifted yaw = %v, want 10", c.Yaw)
	}
	if _, ok := h.activeAt(11 * time.Second); ok {
		t.Fatal("hotspot active after end")
	}
}

func TestCrowdCorrelation(t *testing.T) {
	// Users watching the same video are drawn to the same hotspots: the
	// mean pairwise angular distance at a probe time should be far below
	// the 90° expected for independent uniform viewers.
	rng := rand.New(rand.NewSource(11))
	att := GenerateAttention(rand.New(rand.NewSource(12)), 30*time.Second)
	pop := NewPopulation(rng, 12)
	sessions := pop.Sessions(rng, att, 30*time.Second)
	var sum float64
	var pairs int
	for ts := 5 * time.Second; ts < 28*time.Second; ts += 2 * time.Second {
		for i := 0; i < len(sessions); i++ {
			for j := i + 1; j < len(sessions); j++ {
				sum += sphere.AngularDistance(sessions[i].At(ts), sessions[j].At(ts))
				pairs++
			}
		}
	}
	mean := sum / float64(pairs)
	if mean > 70 {
		t.Fatalf("mean pairwise distance %v°, crowd not correlated", mean)
	}
}

// TestNewPopulationDiversity also pins the random values NewPopulation
// draws per user, the two no field keeps included: dropping or
// reordering one moves every population trace the experiments replay.
func TestNewPopulationDiversity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pop := NewPopulation(rng, 50)
	if got := rng.Int63(); got != 5377631251211792313 {
		t.Fatalf("after 50 users the stream reads %d, want 5377631251211792313", got)
	}
	if u := pop.Users[1]; u.SpeedScale != 0.7699556533369549 || u.Context.Pose != sitting ||
		u.Context.YawRange() != 150 || u.Context.Engaged != 0.6296962203346301 {
		t.Fatalf("user 1 = %+v", u)
	}
	if len(pop.Users) != 50 {
		t.Fatalf("population size %d", len(pop.Users))
	}
	speeds := map[bool]int{}
	for _, u := range pop.Users {
		speeds[u.SpeedScale < 0.75]++
		if u.SpeedScale <= 0 {
			t.Fatal("non-positive speed scale")
		}
	}
	if speeds[true] == 0 || speeds[false] == 0 {
		t.Fatal("population lacks speed diversity")
	}
}

func TestVelocityAtStationaryTrace(t *testing.T) {
	h := HeadTrace{Samples: []Sample{
		{At: 0, View: sphere.Orientation{Yaw: 45}},
		{At: time.Second, View: sphere.Orientation{Yaw: 45}},
		{At: 2 * time.Second, View: sphere.Orientation{Yaw: 45}},
	}}
	if v := velocityAt(&h, time.Second); v > 1e-9 {
		t.Fatalf("stationary velocity = %v", v)
	}
}
