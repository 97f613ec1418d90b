package tiling

import (
	"math"
	"math/rand"
	"testing"

	"sperke/internal/sphere"
)

// The tests below aim at the guard band of borders.tileOf: the thin
// shell around every tile border, the poles and non-unit vectors where
// the kernel must hand the sample to the exact expression, and the
// claim that outside it the two agree.

// guardGrids adds odd column counts (no border shares a great circle
// with another, and the two halves of the frame split unevenly) to the
// reference grids.
var guardGrids = append([]Grid{{Rows: 3, Cols: 5}, {Rows: 1, Cols: 3}, {Rows: 5, Cols: 7}, {Rows: 2, Cols: 2}, {Rows: 7, Cols: 1}}, refGrids...)

// ulps returns x moved n representable values up (down for n < 0).
func ulps(x float64, n int) float64 {
	to := math.Inf(1)
	if n < 0 {
		to, n = math.Inf(-1), -n
	}
	for ; n > 0; n-- {
		x = math.Nextafter(x, to)
	}
	return x
}

// rowBorders and colBorders are the pitches and yaws, in degrees, of a
// grid's tile borders; colBorders[0] is the seam.
func rowBorders(g Grid) []float64 {
	var out []float64
	for r := 1; r < g.Rows; r++ {
		out = append(out, 90-180*float64(r)/float64(g.Rows))
	}
	return out
}

func colBorders(g Grid) []float64 {
	var out []float64
	for k := 0; k < g.Cols; k++ {
		out = append(out, 360*float64(k)/float64(g.Cols)-180)
	}
	return out
}

// TestVisibleTilesOnBorders solves for views that put a lattice sample
// on a tile border and walks them ±4 ulp across it. With no roll the
// middle column of the lattice sits at pitch view.Pitch + hy_j and, on
// the equator, the middle row at yaw view.Yaw + hx_i; the centre sample
// is the view itself, so aiming at (column border, row border) puts it
// on a tile corner. The pole cases straddle the 1e-3 polar cap from
// both sides with the yaw on every column border.
func TestVisibleTilesOnBorders(t *testing.T) {
	for n, g := range guardGrids {
		g, fov := g, refFoVs[n%len(refFoVs)]
		t.Run("", func(t *testing.T) {
			t.Parallel()
			rows, cols := rowBorders(g), colBorders(g)
			for i := 0; i < fovSamples; i++ {
				off := float64(i)/(fovSamples-1) - 0.5
				for u := -4; u <= 4; u++ {
					for _, yaw := range cols {
						checkVisibleMatchesRef(t, g, sphere.Orientation{Yaw: ulps(yaw-off*fov.Width, u)}, fov)
						checkVisibleMatchesRef(t, g, sphere.Orientation{Yaw: ulps(yaw, u), Pitch: -off * fov.Height}, fov)
					}
					for _, pitch := range rows {
						checkVisibleMatchesRef(t, g, sphere.Orientation{Pitch: ulps(pitch-off*fov.Height, u)}, fov)
						checkVisibleMatchesRef(t, g, sphere.Orientation{Yaw: 180 * off, Pitch: ulps(pitch-off*fov.Height, u)}, fov)
					}
				}
			}
			for u := -4; u <= 4; u++ {
				for _, yaw := range cols {
					for _, pitch := range rows {
						checkVisibleMatchesRef(t, g, sphere.Orientation{Yaw: ulps(yaw, u), Pitch: ulps(pitch, -u)}, fov)
						checkVisibleMatchesRef(t, g, sphere.Orientation{Yaw: ulps(yaw, u), Pitch: ulps(pitch, u), Roll: 90}, fov)
					}
					// The polar cap ends 0.0573° from the pole.
					for _, eps := range []float64{0, 1e-9, 1e-4, 0.0572, 0.0573, 0.0574, 0.5} {
						for _, pole := range []float64{90, -90} {
							pitch := pole - math.Copysign(eps, pole)
							checkVisibleMatchesRef(t, g, sphere.Orientation{Yaw: ulps(yaw, u), Pitch: ulps(pitch, u)}, fov)
							checkVisibleMatchesRef(t, g, sphere.Orientation{Yaw: ulps(yaw, u), Pitch: ulps(pitch, u), Roll: 45}, fov)
						}
					}
				}
			}
		})
	}
}

// exactTile is the expression tileOf stands in for.
func exactTile(g Grid, d sphere.Vec3) TileID {
	return g.tileAt(sphere.Equirectangular{}.Forward(sphere.FromDirection(d)))
}

// TestTileOfAgreesWhereItAnswers drives tileOf with vectors rather than
// views: directions built on a border and nudged across it one
// component-ulp at a time, random unit vectors, and everything that is
// not a direction at all. Whenever it answers, the answer is the exact
// expression's; what must be refused is refused.
func TestTileOfAgreesWhereItAnswers(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, g := range guardGrids {
		var b borders
		if !b.init(g) {
			t.Fatalf("%dx%d does not fit the border tables", g.Rows, g.Cols)
		}
		answered := 0
		check := func(d sphere.Vec3) {
			t.Helper()
			id, ok := b.tileOf(d)
			if !ok {
				return
			}
			answered++
			if want := exactTile(g, d); id != want {
				t.Fatalf("%dx%d tileOf(%+v) = %d, exact expression %d", g.Rows, g.Cols, d, id, want)
			}
		}
		pitches := append(rowBorders(g), 0, 90, -90, 89.95, -89.95)
		for _, yaw := range colBorders(g) {
			for _, pitch := range pitches {
				d := sphere.Orientation{Yaw: yaw, Pitch: pitch}.Direction()
				for u := -4; u <= 4; u++ {
					check(sphere.Vec3{X: ulps(d.X, u), Y: d.Y, Z: d.Z})
					check(sphere.Vec3{X: d.X, Y: ulps(d.Y, u), Z: d.Z})
					check(sphere.Vec3{X: d.X, Y: d.Y, Z: ulps(d.Z, u)})
					check(sphere.Vec3{X: ulps(d.X, u), Y: ulps(d.Y, -u), Z: ulps(d.Z, u)})
				}
				// Just outside the band on either side, where it must answer
				// and answer right.
				for _, nudge := range []float64{3e-9, -3e-9, 1e-7, -1e-7} {
					check(sphere.Orientation{Yaw: yaw + nudge*180/math.Pi, Pitch: pitch}.Direction())
					check(sphere.Orientation{Yaw: yaw, Pitch: pitch + nudge*180/math.Pi}.Direction())
				}
			}
		}
		answered = 0
		for n := 0; n < 50_000; n++ {
			check(sphere.Orientation{Yaw: rng.Float64()*360 - 180, Pitch: rng.Float64()*180 - 90}.Direction())
		}
		// Uniform pitch puts 6e-4 of them inside a polar cap.
		if answered < 49_900 {
			t.Fatalf("%dx%d: tileOf answered %d of 50000 random directions", g.Rows, g.Cols, answered)
		}
		nan, inf := math.NaN(), math.Inf(1)
		for _, d := range []sphere.Vec3{
			{}, {Y: 1}, {Y: -1}, {X: 1e-4, Y: 1}, // the poles and the zero vector
			{X: 2}, {Z: 0.5}, {X: 1, Y: 1, Z: 1}, {Z: 1 + 1e-11}, // not unit
			{X: nan, Z: 1}, {Y: nan, Z: 1}, {X: 1, Z: nan}, {X: inf}, {Y: -inf, Z: 1}, {X: nan, Y: nan, Z: nan},
		} {
			if id, ok := b.tileOf(d); ok {
				t.Fatalf("%dx%d tileOf(%+v) answered %d, want it refused", g.Rows, g.Cols, d, id)
			}
		}
	}
	var b borders
	if b.init(Grid{Rows: 2, Cols: maxBorders + 1}) || b.init(Grid{Rows: maxBorders + 1, Cols: 2}) {
		t.Fatal("a grid wider than the border tables was accepted")
	}
	checkVisibleMatchesRef(t, Grid{Rows: 2, Cols: maxBorders + 1}, sphere.Orientation{Yaw: 42, Pitch: 17}, sphere.DefaultFoV)
}

// TestGuardBandIsLoadBearing counts the samples that took the exact
// expression. Views aimed at tile corners must produce some — with
// guard = 0 they would be classified by the sign of a rounding error
// and the equality tests would pass or fail by luck — and random views
// almost none, or the kernel is not the fast path it claims to be.
func TestGuardBandIsLoadBearing(t *testing.T) {
	aimed := 0
	for _, g := range refGrids {
		for _, yaw := range colBorders(g) {
			for _, pitch := range rowBorders(g) {
				_, exact := visibleTiles(g, sphere.Orientation{Yaw: yaw, Pitch: pitch}, sphere.DefaultFoV)
				aimed += exact
			}
		}
	}
	if aimed == 0 {
		t.Fatal("no sample of a corner-aimed view took the exact expression: the guard band is not in use")
	}

	random := 100_000
	if testing.Short() {
		random = 10_000
	}
	rng := rand.New(rand.NewSource(16))
	exact := 0
	for n := 0; n < random; n++ {
		view := sphere.Orientation{
			Yaw:   rng.Float64()*720 - 360,
			Pitch: rng.Float64()*200 - 100,
			Roll:  rng.Float64()*360 - 180,
		}
		_, e := visibleTiles(refGrids[n%len(refGrids)], view, refFoVs[n/10%len(refFoVs)])
		exact += e
	}
	if share := float64(exact) / float64(random*fovSamples*fovSamples); share >= 1e-4 {
		t.Fatalf("%.2e of the samples of random views took the exact expression, want < 1e-4", share)
	}

	// A grid beyond the border tables has no borders to compare with:
	// every sample takes the exact expression.
	if _, e := visibleTiles(Grid{Rows: 2, Cols: maxBorders + 1}, sphere.Orientation{}, sphere.DefaultFoV); e != fovSamples*fovSamples {
		t.Fatalf("%d columns: %d samples took the exact expression, want all %d", maxBorders+1, e, fovSamples*fovSamples)
	}
}
