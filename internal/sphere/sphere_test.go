package sphere

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNormalizeYaw(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0}, {180, -180}, {-180, -180}, {190, -170}, {-190, 170},
		{360, 0}, {720, 0}, {-360, 0}, {540, -180}, {90, 90},
	}
	for _, c := range cases {
		if got := NormalizeYaw(c.in); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("NormalizeYaw(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// normalizeYawMod is NormalizeYaw as it was before the in-range path:
// Mod on every angle.
func normalizeYawMod(yaw float64) float64 {
	y := math.Mod(yaw+180, 360)
	if y < 0 {
		y += 360
	}
	return y - 180
}

// TestNormalizeYawBitIdentical: the in-range path must return the very
// bits Mod returns, since every head trace, predictor and projection
// downstream is pinned byte for byte.
func TestNormalizeYawBitIdentical(t *testing.T) {
	check := func(yaw float64) {
		t.Helper()
		got, want := NormalizeYaw(yaw), normalizeYawMod(yaw)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("NormalizeYaw(%v) = %v (%#x), Mod form %v (%#x)",
				yaw, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for _, a := range []float64{0, 1e-20, 90, 179.999, 180, 360, 540, 720, 1e15, math.MaxFloat64} {
		for _, yaw := range []float64{a, -a} {
			check(yaw)
			check(math.Nextafter(yaw, math.Inf(1)))
			check(math.Nextafter(yaw, math.Inf(-1)))
		}
	}
	check(math.Nextafter(180, 0))
	check(math.Copysign(0, -1))
	check(math.Inf(1))
	check(math.Inf(-1))
	check(math.NaN())
	rng := rand.New(rand.NewSource(15))
	for n := 0; n < 200_000; n++ {
		check(rng.Float64()*1440 - 720)
	}
}

// directionTwoCos is Direction as it was before it kept cos(pitch) in a
// variable: the cosine is evaluated once per component.
func directionTwoCos(o Orientation) Vec3 {
	yaw := o.Yaw * math.Pi / 180
	pitch := o.Pitch * math.Pi / 180
	return Vec3{
		X: math.Cos(pitch) * math.Sin(yaw),
		Y: math.Sin(pitch),
		Z: math.Cos(pitch) * math.Cos(yaw),
	}
}

// TestDirectionBitIdentical: evaluating cos(pitch) once changes no bit
// of the vector, on which AngularDistance and every generated head
// trace depend.
func TestDirectionBitIdentical(t *testing.T) {
	check := func(o Orientation) {
		t.Helper()
		got, want := o.Direction(), directionTwoCos(o)
		if math.Float64bits(got.X) != math.Float64bits(want.X) ||
			math.Float64bits(got.Y) != math.Float64bits(want.Y) ||
			math.Float64bits(got.Z) != math.Float64bits(want.Z) {
			t.Fatalf("%+v.Direction() = %+v, two-cosine form %+v", o, got, want)
		}
	}
	edges := []float64{0, math.Copysign(0, -1), 1e-20, 90, -90, 180, -180, 360, 1e15, math.Inf(1), math.NaN()}
	for _, yaw := range edges {
		for _, pitch := range edges {
			check(Orientation{Yaw: yaw, Pitch: pitch})
			check(Orientation{Yaw: math.Nextafter(yaw, 0), Pitch: math.Nextafter(pitch, 0)})
		}
	}
	rng := rand.New(rand.NewSource(16))
	for n := 0; n < 200_000; n++ {
		check(Orientation{Yaw: rng.Float64()*720 - 360, Pitch: rng.Float64()*200 - 100})
	}
}

// TestSincosIsSinAndCos pins, on the platform that runs it, what
// Direction and tiling's lattice tables lean on: math.Sincos returns the
// bits math.Sin and math.Cos return (a NaN for a NaN), for every
// argument — both sides of
// the 2²⁹ switch to Payne–Hanek reduction, the zeros, the non-finite
// values and arbitrary bit patterns included. Every golden table and
// every reference tile set in the tree was produced with the two-call
// form.
func TestSincosIsSinAndCos(t *testing.T) {
	check := func(x float64) {
		t.Helper()
		s, c := math.Sincos(x)
		same := func(a, b float64) bool {
			// A NaN's payload can differ; nothing downstream can see it.
			return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
		}
		if !same(s, math.Sin(x)) || !same(c, math.Cos(x)) {
			t.Fatalf("Sincos(%v [%#x]) = %v, %v; Sin, Cos = %v, %v", x, math.Float64bits(x), s, c, math.Sin(x), math.Cos(x))
		}
	}
	for _, x := range []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
		math.Pi, math.Pi / 2, math.Pi / 4, 1 << 29, 1<<29 - 1, 1<<29 + 1, 1e15, 1e300,
	} {
		check(x)
		check(-x)
		check(math.Nextafter(x, math.Inf(1)))
		check(math.Nextafter(x, math.Inf(-1)))
	}
	rng := rand.New(rand.NewSource(18))
	n := 1_000_000
	if testing.Short() {
		n = 100_000
	}
	for i := 0; i < n; i++ {
		check((rng.Float64()*720 - 360) * math.Pi / 180) // the angles a session produces
		check(rng.Float64() * (1 << 31))                 // across the reduction switch
		check(math.Float64frombits(rng.Uint64()))        // anything at all
	}
}

func TestNormalizedClampsPitch(t *testing.T) {
	o := Orientation{Yaw: 10, Pitch: 120}.Normalized()
	if o.Pitch != 90 {
		t.Fatalf("pitch = %v, want 90", o.Pitch)
	}
	o = Orientation{Pitch: -95}.Normalized()
	if o.Pitch != -90 {
		t.Fatalf("pitch = %v, want -90", o.Pitch)
	}
}

func TestDirectionCardinal(t *testing.T) {
	cases := []struct {
		o    Orientation
		want Vec3
	}{
		{Orientation{}, Vec3{0, 0, 1}},
		{Orientation{Yaw: 90}, Vec3{1, 0, 0}},
		{Orientation{Yaw: -90}, Vec3{-1, 0, 0}},
		{Orientation{Yaw: -180}, Vec3{0, 0, -1}},
		{Orientation{Pitch: 90}, Vec3{0, 1, 0}},
		{Orientation{Pitch: -90}, Vec3{0, -1, 0}},
	}
	for _, c := range cases {
		got := c.o.Direction()
		if !almostEqual(got.X, c.want.X, 1e-12) || !almostEqual(got.Y, c.want.Y, 1e-12) || !almostEqual(got.Z, c.want.Z, 1e-12) {
			t.Errorf("Direction(%v) = %+v, want %+v", c.o, got, c.want)
		}
	}
}

func TestDirectionRoundTrip(t *testing.T) {
	f := func(yaw, pitch float64) bool {
		o := Orientation{Yaw: math.Mod(yaw, 180), Pitch: math.Mod(pitch, 89)}.Normalized()
		back := FromDirection(o.Direction())
		return almostEqual(AngularDistance(o, back), 0, 1e-4)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFromDirectionZero(t *testing.T) {
	if got := FromDirection(Vec3{}); got != (Orientation{}) {
		t.Fatalf("FromDirection(0) = %v, want zero", got)
	}
}

func TestAngularDistance(t *testing.T) {
	cases := []struct {
		a, b Orientation
		want float64
	}{
		{Orientation{}, Orientation{}, 0},
		{Orientation{}, Orientation{Yaw: 90}, 90},
		{Orientation{}, Orientation{Yaw: -180}, 180},
		{Orientation{}, Orientation{Pitch: 45}, 45},
		{Orientation{Yaw: 170}, Orientation{Yaw: -170}, 20},
	}
	for _, c := range cases {
		if got := AngularDistance(c.a, c.b); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("AngularDistance(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestAngularDistanceSymmetric(t *testing.T) {
	f := func(y1, p1, y2, p2 float64) bool {
		a := Orientation{Yaw: math.Mod(y1, 360), Pitch: math.Mod(p1, 90)}.Normalized()
		b := Orientation{Yaw: math.Mod(y2, 360), Pitch: math.Mod(p2, 90)}.Normalized()
		return almostEqual(AngularDistance(a, b), AngularDistance(b, a), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestContainsCenterAndEdges(t *testing.T) {
	view := Orientation{Yaw: 30}
	fov := FoV{Width: 100, Height: 90}
	if !Contains(view, fov, view) {
		t.Fatal("view center not contained")
	}
	// Just inside the horizontal edge (view pitch 0 keeps the yaw arc on
	// the frustum's horizontal axis).
	if !Contains(view, fov, Orientation{Yaw: 30 + 49}) {
		t.Fatal("point just inside right edge not contained")
	}
	// Just outside.
	if Contains(view, fov, Orientation{Yaw: 30 + 51}) {
		t.Fatal("point outside right edge contained")
	}
	// Behind the viewer.
	if Contains(view, fov, Orientation{Yaw: -150}) {
		t.Fatal("point behind viewer contained")
	}
	// Vertical edges.
	if !Contains(view, fov, Orientation{Yaw: 30, Pitch: 44}) {
		t.Fatal("point just inside top edge not contained")
	}
	if Contains(view, fov, Orientation{Yaw: 30, Pitch: 46}) {
		t.Fatal("point outside top edge contained")
	}
}

func TestContainsYawWraparound(t *testing.T) {
	view := Orientation{Yaw: 175}
	fov := FoV{Width: 100, Height: 90}
	if !Contains(view, fov, Orientation{Yaw: -175}) {
		t.Fatal("wraparound target not contained")
	}
}

func TestContainsWithRoll(t *testing.T) {
	// A narrow-but-tall FoV rolled 90° becomes wide-but-short.
	view := Orientation{Roll: 90}
	fov := FoV{Width: 20, Height: 120}
	// 40° to the right: outside unrolled width 20 but inside the rolled
	// frustum (the rolled horizontal extent is the 120° height).
	if !Contains(view, fov, Orientation{Yaw: 40}) {
		t.Fatal("rolled frustum did not widen horizontally")
	}
	if Contains(view, fov, Orientation{Pitch: 40}) {
		t.Fatal("rolled frustum did not shrink vertically")
	}
}

func TestSphereFractionDefaultNearFifth(t *testing.T) {
	frac := DefaultFoV.SphereFraction()
	if frac < 0.15 || frac > 0.25 {
		t.Fatalf("default FoV covers %.3f of sphere, want ≈0.2", frac)
	}
	// The §1 size claim: full sphere is ≈5× the FoV area.
	ratio := 1 / frac
	if ratio < 4 || ratio > 7 {
		t.Fatalf("sphere/FoV ratio = %.2f, want in [4,7]", ratio)
	}
}

func TestSolidAngleFullSphereLimit(t *testing.T) {
	full := FoV{Width: 180, Height: 180}.solidAngleSr()
	if !almostEqual(full, 2*math.Pi, 1e-9) {
		// A 180×180 frustum is a hemisphere-like wedge: Ω = 4·asin(1·1) = 2π.
		t.Fatalf("Ω(180,180) = %v, want 2π", full)
	}
}

func TestLerpEndpointsAndMidpoint(t *testing.T) {
	a := Orientation{Yaw: 170, Pitch: 10}
	b := Orientation{Yaw: -170, Pitch: 20}
	if got := Lerp(a, b, 0); AngularDistance(got, a) > 1e-9 {
		t.Fatalf("Lerp t=0 = %v, want %v", got, a)
	}
	if got := Lerp(a, b, 1); AngularDistance(got, b) > 1e-9 {
		t.Fatalf("Lerp t=1 = %v, want %v", got, b)
	}
	mid := Lerp(a, b, 0.5)
	if !almostEqual(mid.Yaw, -180, 1e-9) && !almostEqual(mid.Yaw, 180, 1e-9) {
		t.Fatalf("Lerp midpoint yaw = %v, want ±180 (shortest arc)", mid.Yaw)
	}
	if !almostEqual(mid.Pitch, 15, 1e-9) {
		t.Fatalf("Lerp midpoint pitch = %v, want 15", mid.Pitch)
	}
}

func TestContainsYawRotationInvariant(t *testing.T) {
	// Property: rotating both view and target by the same yaw leaves
	// containment unchanged.
	f := func(viewYaw, viewPitch, tYaw, tPitch, shift float64) bool {
		v := Orientation{Yaw: math.Mod(viewYaw, 180), Pitch: math.Mod(viewPitch, 80)}.Normalized()
		tg := Orientation{Yaw: math.Mod(tYaw, 180), Pitch: math.Mod(tPitch, 80)}.Normalized()
		s := math.Mod(shift, 360)
		a := Contains(v, DefaultFoV, tg)
		v2 := Orientation{Yaw: NormalizeYaw(v.Yaw + s), Pitch: v.Pitch}
		t2 := Orientation{Yaw: NormalizeYaw(tg.Yaw + s), Pitch: tg.Pitch}
		b := Contains(v2, DefaultFoV, t2)
		// Allow disagreement only within numeric slack of the frustum
		// edge.
		if a != b {
			hx, hy := angleInView(v, tg)
			nearEdge := math.Abs(math.Abs(hx)-DefaultFoV.Width/2) < 1e-6 ||
				math.Abs(math.Abs(hy)-DefaultFoV.Height/2) < 1e-6
			return nearEdge
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
