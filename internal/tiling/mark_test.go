package tiling

import (
	"math/rand"
	"slices"
	"testing"

	"sperke/internal/sphere"
)

// TestViewportMarkAllocs: the primitive allocates nothing, whatever the
// size of the grid — the set is the caller's.
func TestViewportMarkAllocs(t *testing.T) {
	view := sphere.Orientation{Yaw: 42, Pitch: 17}
	for _, g := range []Grid{GridCellular, {Rows: 10, Cols: 20}} {
		vp := NewViewport(g, sphere.DefaultFoV)
		set := make([]bool, g.Tiles())
		if n := testing.AllocsPerRun(100, func() { vp.Mark(view, set) }); n != 0 {
			t.Fatalf("%dx%d: Mark allocates %.0f objects, want 0", g.Rows, g.Cols, n)
		}
	}
}

// TestViewportAppendVisibleAllocs: appending into a slice that has the
// room allocates nothing either.
func TestViewportAppendVisibleAllocs(t *testing.T) {
	vp := NewViewport(GridCellular, sphere.DefaultFoV)
	view := sphere.Orientation{Yaw: 42, Pitch: 17}
	dst := vp.AppendVisible(nil, view)
	if n := testing.AllocsPerRun(100, func() { dst = vp.AppendVisible(dst[:0], view) }); n != 0 {
		t.Fatalf("AppendVisible into a warm dst allocates %.0f objects, want 0", n)
	}
	if want := vp.Visible(view); !slices.Equal(dst, want) {
		t.Fatalf("AppendVisible = %v, Visible = %v", dst, want)
	}
	// What dst already holds stays in front.
	if got := vp.AppendVisible([]TileID{99}, view); got[0] != 99 || !slices.Equal(got[1:], dst) {
		t.Fatalf("AppendVisible([99]) = %v, want 99 then %v", got, dst)
	}
}

// TestMarkIsVisible: Mark into a set that already holds marks sets
// exactly the reference's tiles and clears nothing.
func TestMarkIsVisible(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, g := range refGrids {
		for _, fov := range refFoVs {
			vp := NewViewport(g, fov)
			for n := 0; n < 200; n++ {
				view := sphere.Orientation{Yaw: rng.Float64()*720 - 360, Pitch: rng.Float64()*200 - 100, Roll: rng.Float64()*360 - 180}
				dirty := make([]bool, g.Tiles())
				for id := range dirty {
					dirty[id] = rng.Intn(3) == 0
				}
				want := slices.Clone(dirty)
				for _, id := range visibleTilesRef(g, view, fov) {
					want[id] = true
				}
				vp.Mark(view, dirty)
				if !slices.Equal(dirty, want) {
					t.Fatalf("%dx%d %+v view %+v\n got %v\nwant %v", g.Rows, g.Cols, fov, view, dirty, want)
				}
			}
		}
	}
	// An invalid grid marks nothing.
	vp := NewViewport(Grid{Rows: -1, Cols: -2}, sphere.DefaultFoV)
	set := make([]bool, 2)
	vp.Mark(sphere.Orientation{}, set)
	if set[0] || set[1] {
		t.Fatalf("Mark on an invalid grid set %v", set)
	}
}
