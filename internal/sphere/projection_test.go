package sphere

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEquirectKnownPoints(t *testing.T) {
	var p Equirectangular
	u, v := p.Forward(Orientation{}) // looking forward
	if !almostEqual(u, 0.5, 1e-9) || !almostEqual(v, 0.5, 1e-9) {
		t.Fatalf("Forward(0,0) = (%v,%v), want (0.5,0.5)", u, v)
	}
	u, v = p.Forward(Orientation{Pitch: 90})
	if !almostEqual(v, 0, 1e-9) {
		t.Fatalf("top of sphere v = %v, want 0", v)
	}
	u, v = p.Forward(Orientation{Yaw: -180})
	if !almostEqual(u, 0, 1e-9) {
		t.Fatalf("yaw -180 u = %v, want 0", u)
	}
}

func TestEquirectRoundTrip(t *testing.T) {
	var p Equirectangular
	f := func(yaw, pitch float64) bool {
		o := Orientation{Yaw: math.Mod(yaw, 179.9), Pitch: math.Mod(pitch, 89.9)}.Normalized()
		u, v := p.Forward(o)
		if u < 0 || u >= 1 || v < 0 || v > 1 {
			return false
		}
		back := p.Inverse(u, v)
		return AngularDistance(o, back) < 1e-4
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEquirectInverseCoversUnitSquare(t *testing.T) {
	var p Equirectangular
	for _, uv := range [][2]float64{{0, 0}, {0.999, 0.999}, {0.25, 0.75}, {0.5, 0.5}} {
		o := p.Inverse(uv[0], uv[1])
		if o.Pitch < -90 || o.Pitch > 90 || o.Yaw < -180 || o.Yaw >= 180+1e-9 {
			t.Fatalf("Inverse(%v) = %v out of range", uv, o)
		}
	}
}
