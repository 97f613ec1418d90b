package tiling

import (
	"math/rand"
	"slices"
	"testing"

	"sperke/internal/sphere"
)

// TestViewportsInterleaved: viewports are values with nothing shared
// between them, so four of them — two grids × two FoVs — answering in
// turn each give what the reference gives for their own pair. (A
// table kept between calls and keyed on the last FoV or grid would
// have to be rebuilt on every one of these calls, or be wrong.)
func TestViewportsInterleaved(t *testing.T) {
	grids := []Grid{GridCellular, {Rows: 10, Cols: 20}}
	fovs := []sphere.FoV{sphere.DefaultFoV, {Width: 60, Height: 40}}
	var vps []Viewport
	var of []sphere.FoV // of[k] is the FoV vps[k] was built for
	for _, g := range grids {
		for _, fov := range fovs {
			vps, of = append(vps, NewViewport(g, fov)), append(of, fov)
		}
	}
	rng := rand.New(rand.NewSource(17))
	for n := 0; n < 4000; n++ {
		view := sphere.Orientation{Yaw: rng.Float64()*720 - 360, Pitch: rng.Float64()*200 - 100, Roll: rng.Float64()*40 - 20}
		vp, fov := &vps[n%len(vps)], of[n%len(vps)]
		got, want := vp.Visible(view), visibleTilesRef(vp.Grid(), view, fov)
		if !slices.Equal(got, want) {
			t.Fatalf("call %d, %dx%d %+v, view %+v\n got %v\nwant %v", n, vp.Grid().Rows, vp.Grid().Cols, fov, view, got, want)
		}
	}
	// A copy is as good as the original.
	cp := vps[0]
	view := sphere.Orientation{Yaw: 42, Pitch: 17}
	if !slices.Equal(cp.Visible(view), vps[0].Visible(view)) {
		t.Fatal("a copied Viewport answers differently")
	}
}

// TestViewportVisibleAllocs: a query allocates its result and nothing
// else on the 4×6 grid, and one object more on a wide one.
// (TestVisibleTilesAllocs has the other half: building a viewport
// allocates nothing at all.)
func TestViewportVisibleAllocs(t *testing.T) {
	for _, tc := range queryGrids {
		if n := testing.AllocsPerRun(100, visibleQuery(tc.g)); n > tc.allocs {
			t.Fatalf("%s: Visible allocates %.0f objects, want at most %.0f", tc.name, n, tc.allocs)
		}
	}
}
