package tiling

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"sperke/internal/sphere"
	"sperke/internal/trace"
)

// The tests in this file hold markKernel — markLattice plus the exact
// expression on the lanes it hands back — to markLoop: the same tiles
// and the same count of exact samples, view for view. They run wherever
// the kernel is selected.

// kernelGrids are the guard grids the kernel takes: at most 64 tiles.
var kernelGrids = slices.DeleteFunc(slices.Clone(guardGrids), func(g Grid) bool { return g.Tiles() > 64 })

func skipWithoutMarkKernel(t testing.TB) {
	if !vectorMark {
		t.Skip("the lattice kernel is not selected in this build or on this CPU")
	}
}

// checkKernelMatchesLoop marks view through the kernel and through the
// loop and requires the same set and the same exact count. It returns
// the count.
func checkKernelMatchesLoop(t testing.TB, vp *Viewport, view sphere.Orientation) int {
	t.Helper()
	r := newRotation(view)
	var fromKernel, fromLoop [64]bool
	kernel := vp.markKernel(&r, fromKernel[:vp.g.Tiles()])
	loop := vp.markLoop(&r, fromLoop[:vp.g.Tiles()])
	if fromKernel != fromLoop || kernel != loop {
		g := vp.g
		t.Fatalf("%dx%d view %+v: kernel marks %v with %d exact, loop %v with %d", g.Rows, g.Cols, view, fromKernel[:g.Tiles()], kernel, fromLoop[:g.Tiles()], loop)
	}
	return kernel
}

// borderSolvedViews are the views TestVisibleTilesOnBorders solves
// for: a lattice sample on a row or a column border, on a tile corner,
// or either side of a polar cap, each walked ±4 ulp across.
func borderSolvedViews(g Grid, fov sphere.FoV) []sphere.Orientation {
	var views []sphere.Orientation
	rows, cols := rowBorders(g), colBorders(g)
	for u := -4; u <= 4; u++ {
		for i := 0; i < fovSamples; i++ {
			off := float64(i)/(fovSamples-1) - 0.5
			for _, yaw := range cols {
				views = append(views,
					sphere.Orientation{Yaw: ulps(yaw-off*fov.Width, u)},
					sphere.Orientation{Yaw: ulps(yaw, u), Pitch: -off * fov.Height})
			}
			for _, pitch := range rows {
				views = append(views,
					sphere.Orientation{Pitch: ulps(pitch-off*fov.Height, u)},
					sphere.Orientation{Yaw: 180 * off, Pitch: ulps(pitch-off*fov.Height, u)})
			}
		}
		for _, yaw := range cols {
			for _, pitch := range rows {
				views = append(views,
					sphere.Orientation{Yaw: ulps(yaw, u), Pitch: ulps(pitch, -u)},
					sphere.Orientation{Yaw: ulps(yaw, u), Pitch: ulps(pitch, u), Roll: 90})
			}
			for _, eps := range []float64{0, 1e-9, 1e-4, 0.0572, 0.0573, 0.0574, 0.5} {
				for _, pole := range []float64{90, -90} {
					pitch := pole - math.Copysign(eps, pole)
					views = append(views,
						sphere.Orientation{Yaw: ulps(yaw, u), Pitch: ulps(pitch, u)},
						sphere.Orientation{Yaw: ulps(yaw, u), Pitch: ulps(pitch, u), Roll: 45})
				}
			}
		}
	}
	return views
}

// TestMarkKernelMatchesLoop: head-trace views (what sessions ask),
// random views with the non-finite and polar ones, and border-solved
// views (where lanes are handed back), on every grid the kernel takes
// and every reference FoV. Border-solved views must hand some lanes
// back, or the band is not exercised.
func TestMarkKernelMatchesLoop(t *testing.T) {
	skipWithoutMarkKernel(t)
	var heads []sphere.Orientation
	for seed := int64(1); seed <= 3; seed++ {
		head := trace.Draw(seed, seed+60, trace.UserProfile{SpeedScale: float64(seed)}, 60*time.Second)
		for ts := time.Duration(0); ts < head.Duration(); ts += 100 * time.Millisecond {
			heads = append(heads, head.At(ts))
		}
	}
	rng := rand.New(rand.NewSource(49))
	random := make([]sphere.Orientation, 2000)
	for n := range random {
		random[n] = sphere.Orientation{Yaw: rng.Float64()*720 - 360, Pitch: rng.Float64()*200 - 100, Roll: rng.Float64()*360 - 180}
	}
	nan, inf := math.NaN(), math.Inf(1)
	random = append(random,
		sphere.Orientation{}, sphere.Orientation{Pitch: 90}, sphere.Orientation{Pitch: -90, Yaw: 180},
		sphere.Orientation{Yaw: nan}, sphere.Orientation{Pitch: nan}, sphere.Orientation{Roll: nan},
		sphere.Orientation{Yaw: inf}, sphere.Orientation{Pitch: -inf}, sphere.Orientation{Yaw: 1e300})
	for n, g := range kernelGrids {
		for _, fov := range refFoVs {
			vp := NewViewport(g, fov)
			for _, view := range heads {
				checkKernelMatchesLoop(t, &vp, view)
			}
			for _, view := range random {
				checkKernelMatchesLoop(t, &vp, view)
			}
			if fov != refFoVs[n%len(refFoVs)] {
				continue // the border solve is TestVisibleTilesOnBorders' pairing
			}
			exact := 0
			for _, view := range borderSolvedViews(g, fov) {
				exact += checkKernelMatchesLoop(t, &vp, view)
			}
			if exact == 0 {
				t.Fatalf("%dx%d: no border-solved view handed a lane back", g.Rows, g.Cols)
			}
		}
	}
}

// FuzzMarkKernelMatchesLoop draws the view, the grid and the FoV.
func FuzzMarkKernelMatchesLoop(f *testing.F) {
	skipWithoutMarkKernel(f)
	f.Add(42.0, 17.0, 0.0, uint8(1), uint8(0))
	f.Add(-180.0, 45.0, 90.0, uint8(2), uint8(1))
	f.Add(0.0, 90.0, 0.0, uint8(0), uint8(2))
	f.Add(-120.0, -89.95, 45.0, uint8(3), uint8(0))
	f.Add(0.0, 0.0, 0.0, uint8(6), uint8(0)) // 4×6, the centre sample on a tile corner
	f.Fuzz(func(t *testing.T, yaw, pitch, roll float64, grid, fov uint8) {
		vp := NewViewport(kernelGrids[int(grid)%len(kernelGrids)], refFoVs[int(fov)%len(refFoVs)])
		checkKernelMatchesLoop(t, &vp, sphere.Orientation{Yaw: yaw, Pitch: pitch, Roll: roll})
	})
}
