package sphere

import (
	"math"
	"testing"
)

// These tests guard the degree/radian boundary at the singular points
// of the sphere — the poles (Pitch ±90), the antimeridian (Yaw ±180),
// and the acos clamp in AngularDistance. TestDirection* and
// TestContains* guard it everywhere else.

func TestPoleRoundTrip(t *testing.T) {
	for _, pitch := range []float64{90, -90} {
		for _, yaw := range []float64{0, 45, -135, 179.5} {
			o := Orientation{Yaw: yaw, Pitch: pitch}
			back := FromDirection(o.Direction())
			// At a pole the view axis is vertical: yaw is degenerate, but
			// the recovered direction must coincide.
			if d := AngularDistance(o, back); !almostEqual(d, 0, 1e-6) {
				t.Errorf("pole round-trip %v -> %v drifted %v°", o, back, d)
			}
			if !almostEqual(back.Pitch, pitch, 1e-9) {
				t.Errorf("pole round-trip %v lost pitch: got %v", o, back.Pitch)
			}
		}
	}
}

func TestAntimeridianRoundTrip(t *testing.T) {
	for _, yaw := range []float64{180, -180, 179.999, -179.999} {
		for _, pitch := range []float64{0, 30, -60, 89} {
			o := Orientation{Yaw: yaw, Pitch: pitch}
			back := FromDirection(o.Direction())
			if d := AngularDistance(o, back); !almostEqual(d, 0, 1e-6) {
				t.Errorf("antimeridian round-trip %v -> %v drifted %v°", o, back, d)
			}
		}
	}
	// Yaw +180 and -180 are the same meridian.
	if d := AngularDistance(Orientation{Yaw: 180}, Orientation{Yaw: -180}); !almostEqual(d, 0, 1e-9) {
		t.Errorf("yaw +180 vs -180 distance = %v, want 0", d)
	}
	if got := NormalizeYaw(180); got != -180 {
		t.Errorf("NormalizeYaw(180) = %v, want -180 (half-open [-180,180))", got)
	}
}

func TestAngularDistanceEdgeCases(t *testing.T) {
	// Identical axes: the dot product can exceed 1 by rounding; the
	// clamp must keep Acos out of NaN territory.
	for _, o := range []Orientation{
		{},
		{Yaw: 180},
		{Pitch: 90},
		{Pitch: -90},
		{Yaw: -179.999, Pitch: 89.999},
	} {
		d := AngularDistance(o, o)
		if math.IsNaN(d) {
			t.Fatalf("AngularDistance(%v, self) = NaN: acos clamp failed", o)
		}
		if !almostEqual(d, 0, 1e-6) {
			t.Errorf("AngularDistance(%v, self) = %v, want 0", o, d)
		}
	}
	// Antipodal pairs are exactly 180° apart.
	pairs := [][2]Orientation{
		{{Yaw: 0}, {Yaw: 180}},
		{{Pitch: 90}, {Pitch: -90}},
		{{Yaw: 90, Pitch: 0}, {Yaw: -90, Pitch: 0}},
	}
	for _, p := range pairs {
		d := AngularDistance(p[0], p[1])
		if math.IsNaN(d) || !almostEqual(d, 180, 1e-6) {
			t.Errorf("AngularDistance(%v, %v) = %v, want 180", p[0], p[1], d)
		}
	}
}

func TestNormalizedClampBehavior(t *testing.T) {
	cases := []struct {
		in        Orientation
		wantPitch float64
	}{
		{Orientation{Pitch: 90.0000001}, 90},
		{Orientation{Pitch: -90.0000001}, -90},
		{Orientation{Pitch: 540}, 90},
		{Orientation{Pitch: -540}, -90},
	}
	for _, c := range cases {
		got := c.in.Normalized()
		if got.Pitch != c.wantPitch {
			t.Errorf("Normalized(%v).Pitch = %v, want %v", c.in, got.Pitch, c.wantPitch)
		}
		// A clamped orientation must survive a projection round-trip
		// without NaN.
		back := FromDirection(got.Direction())
		if math.IsNaN(back.Yaw) || math.IsNaN(back.Pitch) {
			t.Errorf("round-trip of clamped %v produced NaN: %v", c.in, back)
		}
	}
}

func TestFromDirectionDegenerate(t *testing.T) {
	if got := FromDirection(Vec3{}); got != (Orientation{}) {
		t.Errorf("FromDirection(zero) = %v, want zero orientation", got)
	}
	// Nearly-vertical vectors exercise the asin clamp.
	for _, v := range []Vec3{{X: 1e-300, Y: 1, Z: 1e-300}, {X: 0, Y: -1, Z: 0}} {
		got := FromDirection(v)
		if math.IsNaN(got.Pitch) || math.IsNaN(got.Yaw) {
			t.Errorf("FromDirection(%+v) produced NaN: %v", v, got)
		}
	}
}

func TestLerpShortestArcAcrossAntimeridian(t *testing.T) {
	a := Orientation{Yaw: 170}
	b := Orientation{Yaw: -170}
	mid := Lerp(a, b, 0.5)
	// The short way crosses the antimeridian: midpoint is ±180, never 0.
	if !almostEqual(math.Abs(mid.Yaw), 180, 1e-9) {
		t.Errorf("Lerp(170, -170, 0.5).Yaw = %v, want ±180", mid.Yaw)
	}
	// Endpoints reproduce (modulo normalization).
	if d := AngularDistance(Lerp(a, b, 0), a); !almostEqual(d, 0, 1e-9) {
		t.Errorf("Lerp t=0 drifted %v°", d)
	}
	if d := AngularDistance(Lerp(a, b, 1), b); !almostEqual(d, 0, 1e-9) {
		t.Errorf("Lerp t=1 drifted %v°", d)
	}
}

func TestContainsAtPole(t *testing.T) {
	view := Orientation{Pitch: 90}
	fov := DefaultFoV
	// A target a few degrees off the pole must be visible regardless of
	// its (degenerate) yaw.
	for _, yaw := range []float64{0, 90, -180} {
		target := Orientation{Yaw: yaw, Pitch: 87}
		if !Contains(view, fov, target) {
			t.Errorf("pole view misses nearby target %v", target)
		}
	}
	// The opposite pole is never visible.
	if Contains(view, fov, Orientation{Pitch: -90}) {
		t.Error("pole view claims to see the antipode")
	}
}
