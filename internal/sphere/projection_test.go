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

func TestCubeMapRoundTrip(t *testing.T) {
	var p CubeMap
	f := func(yaw, pitch float64) bool {
		o := Orientation{Yaw: math.Mod(yaw, 179.9), Pitch: math.Mod(pitch, 89.9)}.Normalized()
		u, v := p.Forward(o)
		if u < 0 || u >= 1 || v < 0 || v >= 1 {
			return false
		}
		back := p.Inverse(u, v)
		return AngularDistance(o, back) < 1e-4
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCubeMapFaceAssignment(t *testing.T) {
	cases := []struct {
		o    Orientation
		want cubeFace
	}{
		{Orientation{}, faceFront},
		{Orientation{Yaw: -180}, faceBack},
		{Orientation{Yaw: 90}, faceRight},
		{Orientation{Yaw: -90}, faceLeft},
		{Orientation{Pitch: 90}, faceTop},
		{Orientation{Pitch: -90}, faceBottom},
	}
	for _, c := range cases {
		f, _, _ := faceOf(c.o.Direction())
		if f != c.want {
			t.Errorf("faceOf(%v) = %v, want %v", c.o, f, c.want)
		}
	}
}

func TestCubeFaceString(t *testing.T) {
	if faceTop.String() != "top" {
		t.Fatalf("FaceTop = %q", faceTop.String())
	}
	if cubeFace(99).String() != "face(99)" {
		t.Fatalf("unknown face = %q", cubeFace(99).String())
	}
}

func TestPixelEfficiencyOrdering(t *testing.T) {
	// Cube map wastes fewer pixels than equirectangular — one of the
	// reasons Facebook adopted it (§2 refs [10]).
	eq := Equirectangular{}.PixelEfficiency()
	cm := CubeMap{}.PixelEfficiency()
	if !(eq > 0 && eq < 1 && cm > 0 && cm < 1) {
		t.Fatalf("efficiencies out of (0,1): eq=%v cm=%v", eq, cm)
	}
	if cm <= eq {
		t.Fatalf("cubemap efficiency %v should exceed equirect %v", cm, eq)
	}
}

func TestProjectionsImplementInterface(t *testing.T) {
	for _, p := range []Projection{Equirectangular{}, CubeMap{}} {
		if p.Name() == "" {
			t.Fatalf("%T has empty name", p)
		}
		u, v := p.Forward(Orientation{Yaw: 12, Pitch: 34})
		o := p.Inverse(u, v)
		if AngularDistance(o, Orientation{Yaw: 12, Pitch: 34}) > 1e-4 {
			t.Fatalf("%s round trip failed", p.Name())
		}
	}
}
