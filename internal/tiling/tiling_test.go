package tiling

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"sperke/internal/sphere"
)

func TestGridValidate(t *testing.T) {
	if err := (Grid{Rows: 2, Cols: 4}).Validate(); err != nil {
		t.Fatalf("valid grid rejected: %v", err)
	}
	if err := (Grid{Rows: 0, Cols: 4}).Validate(); err == nil {
		t.Fatal("degenerate grid accepted")
	}
}

func TestTileRowColRoundTrip(t *testing.T) {
	g := Grid{Rows: 4, Cols: 6}
	for id := TileID(0); int(id) < g.Tiles(); id++ {
		row, col := g.rowCol(id)
		if got := g.Tile(row, col); got != id {
			t.Fatalf("Tile(RowCol(%d)) = %d", id, got)
		}
	}
}

func TestTileColumnWraps(t *testing.T) {
	g := Grid{Rows: 2, Cols: 4}
	if g.Tile(0, 4) != g.Tile(0, 0) {
		t.Fatal("column did not wrap at +Cols")
	}
	if g.Tile(0, -1) != g.Tile(0, 3) {
		t.Fatal("column did not wrap at -1")
	}
}

func TestTileRowClamps(t *testing.T) {
	g := Grid{Rows: 2, Cols: 4}
	if g.Tile(-1, 0) != g.Tile(0, 0) {
		t.Fatal("row did not clamp at top")
	}
	if g.Tile(5, 0) != g.Tile(1, 0) {
		t.Fatal("row did not clamp at bottom")
	}
}

func TestRectPartitionsUnitSquare(t *testing.T) {
	g := Grid{Rows: 3, Cols: 5}
	var area float64
	for id := TileID(0); int(id) < g.Tiles(); id++ {
		u0, v0, u1, v1 := g.rect(id)
		if u0 >= u1 || v0 >= v1 {
			t.Fatalf("tile %d rect degenerate", id)
		}
		area += (u1 - u0) * (v1 - v0)
	}
	if area < 0.999 || area > 1.001 {
		t.Fatalf("tile areas sum to %v, want 1", area)
	}
}

func TestTileAtMatchesRect(t *testing.T) {
	g := Grid{Rows: 4, Cols: 6}
	f := func(u, v float64) bool {
		u = frac(u)
		v = frac(v)
		id := g.tileAt(u, v)
		u0, v0, u1, v1 := g.rect(id)
		return u >= u0-1e-12 && u < u1+1e-12 && v >= v0-1e-12 && v < v1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func frac(x float64) float64 {
	f := math.Abs(math.Mod(x, 1))
	if math.IsNaN(f) {
		return 0
	}
	return f
}

func TestVisibleTilesForwardView(t *testing.T) {
	g := GridPrototype // 2x4
	p := sphere.Equirectangular{}
	tiles := VisibleTiles(g, sphere.Orientation{}, sphere.DefaultFoV)
	if len(tiles) == 0 {
		t.Fatal("no visible tiles")
	}
	// A 100° wide FoV at yaw 0 must cover the two middle columns (each
	// column spans 90° of yaw) and not the back column exclusively.
	if len(tiles) >= g.Tiles() {
		t.Fatalf("forward view claims all %d tiles visible", len(tiles))
	}
	// The tile containing the exact view center must be present.
	u, v := p.Forward(sphere.Orientation{})
	center := g.tileAt(u, v)
	found := false
	for _, id := range tiles {
		if id == center {
			found = true
		}
	}
	if !found {
		t.Fatal("center tile missing from visible set")
	}
}

func TestVisibleTilesCoverEveryFoVDirection(t *testing.T) {
	// Property: every direction sampled strictly inside the FoV maps to a
	// tile in the visible set.
	g := GridCellular
	p := sphere.Equirectangular{}
	views := []sphere.Orientation{
		{}, {Yaw: 90}, {Yaw: -170, Pitch: 30}, {Pitch: 80}, {Pitch: -75, Yaw: 45},
	}
	for _, view := range views {
		set := make(map[TileID]bool)
		for _, id := range VisibleTiles(g, view, sphere.DefaultFoV) {
			set[id] = true
		}
		for i := -4; i <= 4; i++ {
			for j := -4; j <= 4; j++ {
				hx := float64(i) / 4 * sphere.DefaultFoV.Width / 2 * 0.99
				hy := float64(j) / 4 * sphere.DefaultFoV.Height / 2 * 0.99
				dir := frustumDirectionRef(view, hx, hy)
				u, v := p.Forward(dir)
				if !set[g.tileAt(u, v)] {
					t.Fatalf("view %v: direction (%.0f,%.0f) tile %d not in visible set %v",
						view, hx, hy, g.tileAt(u, v), setKeys(set))
				}
			}
		}
	}
}

func setKeys(m map[TileID]bool) []TileID {
	var out []TileID
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestVisibleTilesAtPoleCoverAllColumns(t *testing.T) {
	// Looking straight up, the FoV surrounds the pole: in equirectangular
	// space that touches every column of the top row.
	g := GridCellular
	tiles := VisibleTiles(g, sphere.Orientation{Pitch: 90}, sphere.DefaultFoV)
	cols := make(map[int]bool)
	for _, id := range tiles {
		row, col := g.rowCol(id)
		if row == 0 {
			cols[col] = true
		}
	}
	if len(cols) != g.Cols {
		t.Fatalf("pole view covers %d/%d top-row columns", len(cols), g.Cols)
	}
}

func TestRingBasic(t *testing.T) {
	g := GridCellular // 4x6
	fov := []TileID{g.Tile(1, 1), g.Tile(1, 2), g.Tile(2, 1), g.Tile(2, 2)}
	ring1 := Ring(g, fov, 1)
	for _, id := range ring1 {
		for _, f := range fov {
			if id == f {
				t.Fatalf("ring tile %d is in the FoV set", id)
			}
		}
	}
	// The 2x2 block's ring-1 is the surrounding 4x4 minus the block = 12.
	if len(ring1) != 12 {
		t.Fatalf("ring1 size = %d, want 12", len(ring1))
	}
}

func TestRingWrapsYaw(t *testing.T) {
	g := Grid{Rows: 1, Cols: 6}
	ring := Ring(g, []TileID{0}, 1)
	// Neighbors of column 0 on a 1-row wrap grid: columns 1 and 5.
	if len(ring) != 2 {
		t.Fatalf("ring = %v, want 2 tiles", ring)
	}
	has5 := false
	for _, id := range ring {
		if id == 5 {
			has5 = true
		}
	}
	if !has5 {
		t.Fatalf("ring %v missing wrapped column 5", ring)
	}
}

func TestRingZeroOrNegativeEmpty(t *testing.T) {
	g := GridPrototype
	if Ring(g, []TileID{0}, 0) != nil {
		t.Fatal("Ring dist=0 not empty")
	}
	if Ring(g, []TileID{0}, -1) != nil {
		t.Fatal("Ring dist<0 not empty")
	}
}

func TestDistancesCoverGrid(t *testing.T) {
	g := GridCellular
	d := Distances(g, []TileID{0})
	if len(d) != g.Tiles() {
		t.Fatalf("Distances covers %d tiles, want %d", len(d), g.Tiles())
	}
	if d[0] != 0 {
		t.Fatalf("seed distance = %d, want 0", d[0])
	}
	// On a 4x6 wrap grid the farthest tile from (0,0) is 3 steps
	// (Chebyshev with column wrap: max row dist 3, max col dist 3).
	maxD := 0
	for _, v := range d {
		if v > maxD {
			maxD = v
		}
	}
	if maxD != 3 {
		t.Fatalf("max distance = %d, want 3", maxD)
	}
}

func TestDistancesMonotoneUnderGrowingSet(t *testing.T) {
	// Property: adding tiles to the seed set can only decrease distances.
	g := GridCellular
	d1 := Distances(g, []TileID{0})
	d2 := Distances(g, []TileID{0, g.Tile(3, 3)})
	for id, v2 := range d2 {
		if v2 > d1[id] {
			t.Fatalf("tile %d distance grew from %d to %d after adding seeds", id, d1[id], v2)
		}
	}
}

func TestChunkIDIndexAndString(t *testing.T) {
	c := ChunkID{Quality: 2, Tile: 5, Start: 4 * time.Second}
	if c.String() == "" {
		t.Fatal("empty String")
	}
}

func TestCenterInsideTileRect(t *testing.T) {
	g := GridCellular
	p := sphere.Equirectangular{}
	for id := TileID(0); int(id) < g.Tiles(); id++ {
		u0, v0, u1, v1 := g.rect(id)
		u, v := p.Forward(p.Inverse((u0+u1)/2, (v0+v1)/2))
		if g.tileAt(u, v) != id {
			t.Fatalf("tile %d center maps to tile %d", id, g.tileAt(u, v))
		}
	}
}
