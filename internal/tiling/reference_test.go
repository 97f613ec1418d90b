package tiling

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"sperke/internal/sphere"
)

// The functions below are the bodies VisibleTiles, TileAt and
// distancesFrom had before the visibility kernel replaced them, kept
// verbatim as the oracle: the kernel is licensed by returning exactly
// what they return, not by being close.

// visibleTilesRef recomputes every sine and cosine per sample and
// collects tiles in a map.
func visibleTilesRef(g Grid, p sphere.Projection, view sphere.Orientation, fov sphere.FoV) []TileID {
	seen := make(map[TileID]bool)
	for i := 0; i < fovSamples; i++ {
		for j := 0; j < fovSamples; j++ {
			hx := (float64(i)/(fovSamples-1) - 0.5) * fov.Width
			hy := (float64(j)/(fovSamples-1) - 0.5) * fov.Height
			dir := frustumDirectionRef(view, hx, hy)
			u, v := p.Forward(dir)
			seen[tileAtRef(g, u, v)] = true
		}
	}
	out := make([]TileID, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func frustumDirectionRef(view sphere.Orientation, hx, hy float64) sphere.Orientation {
	local := sphere.Orientation{Yaw: hx, Pitch: hy}.Direction()
	v := rotZRef(local, view.Roll)
	v = rotXRef(v, view.Pitch)
	v = rotYRef(v, view.Yaw)
	return sphere.FromDirection(v)
}

func rotYRef(v sphere.Vec3, deg float64) sphere.Vec3 {
	s, c := sincos(deg)
	return sphere.Vec3{X: v.X*c + v.Z*s, Y: v.Y, Z: -v.X*s + v.Z*c}
}

func rotXRef(v sphere.Vec3, deg float64) sphere.Vec3 {
	s, c := sincos(deg)
	return sphere.Vec3{X: v.X, Y: v.Y*c + v.Z*s, Z: -v.Y*s + v.Z*c}
}

func rotZRef(v sphere.Vec3, deg float64) sphere.Vec3 {
	s, c := sincos(deg)
	return sphere.Vec3{X: v.X*c - v.Y*s, Y: v.X*s + v.Y*c, Z: v.Z}
}

// tileAtRef clamps in float before the int conversion, since Go leaves
// converting an out-of-range float to int implementation-defined (386
// and amd64 disagree). It is only an oracle for finite coordinates
// (TestTileAtAlwaysValid covers the rest).
func tileAtRef(g Grid, u, v float64) TileID {
	col := int(min(max(u, 0)*float64(g.Cols), float64(g.Cols-1)))
	row := int(min(max(v, 0)*float64(g.Rows), float64(g.Rows-1)))
	return TileID(row*g.Cols + col)
}

// distancesRef is the three-map BFS with a sort per frontier.
func distancesRef(g Grid, set []TileID) map[TileID]int {
	in := make(map[TileID]bool, len(set))
	for _, id := range set {
		in[id] = true
	}
	dist := make(map[TileID]int, g.Tiles())
	var frontier []TileID
	for id := range in {
		if g.Valid(id) {
			dist[id] = 0
			frontier = append(frontier, id)
		}
	}
	sort.Slice(frontier, func(i, j int) bool { return frontier[i] < frontier[j] })
	for d := 1; len(frontier) > 0; d++ {
		var next []TileID
		for _, id := range frontier {
			row, col := g.RowCol(id)
			for dr := -1; dr <= 1; dr++ {
				for dc := -1; dc <= 1; dc++ {
					if dr == 0 && dc == 0 {
						continue
					}
					nr := row + dr
					if nr < 0 || nr >= g.Rows {
						continue
					}
					n := g.Tile(nr, col+dc)
					if _, ok := dist[n]; !ok {
						dist[n] = d
						next = append(next, n)
					}
				}
			}
		}
		sort.Slice(next, func(i, j int) bool { return next[i] < next[j] })
		frontier = next
	}
	return dist
}

func ringRef(g Grid, set []TileID, dist int) []TileID {
	if dist <= 0 {
		return nil
	}
	var out []TileID
	for id, d := range distancesRef(g, set) {
		if d == dist {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

var (
	refGrids = []Grid{GridPrototype, GridCellular, {Rows: 8, Cols: 12}, {Rows: 1, Cols: 1}, {Rows: 10, Cols: 20}}
	refProjs = []sphere.Projection{sphere.Equirectangular{}, sphere.CubeMap{}}
	refFoVs  = []sphere.FoV{sphere.DefaultFoV, {Width: 60, Height: 40}, {Width: 170, Height: 150}}
)

func checkVisibleMatchesRef(t *testing.T, g Grid, p sphere.Projection, view sphere.Orientation, fov sphere.FoV) {
	t.Helper()
	got, want := VisibleTiles(g, p, view, fov), visibleTilesRef(g, p, view, fov)
	if !slices.Equal(got, want) {
		t.Fatalf("VisibleTiles(%dx%d, %s, %+v, %+v)\n got %v\nwant %v", g.Rows, g.Cols, p.Name(), view, fov, got, want)
	}
}

// TestVisibleTilesMatchesReference is the equality that licenses the
// kernel: on every input the hoisted form returns the unhoisted form's
// tile set. Random views cover yaw ±360, pitch ±100 and roll ±180; the
// forced cases sit on and one ulp either side of the poles, the yaw
// seam and the quarter turns, where a tile border is one rounding away.
func TestVisibleTilesMatchesReference(t *testing.T) {
	random := 100_000
	if testing.Short() {
		random = 10_000
	}
	const shards = 4 // independent seeds, run in parallel
	for s := 0; s < shards; s++ {
		s := s
		t.Run(fmt.Sprintf("random-%d", s), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(15 + s)))
			for n := 0; n < random/shards; n++ {
				view := sphere.Orientation{
					Yaw:   rng.Float64()*720 - 360,
					Pitch: rng.Float64()*200 - 100,
					Roll:  rng.Float64()*360 - 180,
				}
				if n%3 == 0 {
					view.Roll = 0 // what head traces mostly produce
				}
				checkVisibleMatchesRef(t, refGrids[n%len(refGrids)], refProjs[n/5%len(refProjs)], view, refFoVs[n/10%len(refFoVs)])
			}
		})
	}
	t.Run("edges", func(t *testing.T) {
		t.Parallel()
		var edges []float64
		for _, a := range []float64{0, 90, 180, 360} {
			for _, s := range []float64{a, -a} {
				edges = append(edges, s, math.Nextafter(s, math.Inf(1)), math.Nextafter(s, math.Inf(-1)))
			}
		}
		edges = append(edges, 1e-20, -1e-20, math.Copysign(0, -1))
		for n, g := range refGrids {
			for _, p := range refProjs {
				fov := refFoVs[n%len(refFoVs)]
				for _, yaw := range edges {
					for _, pitch := range edges {
						checkVisibleMatchesRef(t, g, p, sphere.Orientation{Yaw: yaw, Pitch: pitch}, fov)
						checkVisibleMatchesRef(t, g, p, sphere.Orientation{Yaw: yaw, Pitch: pitch, Roll: yaw / 2}, fov)
					}
				}
			}
		}
	})
}

func FuzzVisibleTilesMatchesReference(f *testing.F) {
	f.Add(uint8(1), false, 42.0, 17.0, 0.0, 100.0, 90.0)
	f.Add(uint8(0), true, -180.0, 90.0, 180.0, 60.0, 40.0)
	f.Add(uint8(4), false, 359.99, -100.0, -45.0, 170.0, 150.0)
	f.Fuzz(func(t *testing.T, grid uint8, cube bool, yaw, pitch, roll, w, h float64) {
		for _, x := range []float64{yaw, pitch, roll, w, h} {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Skip() // tileAtRef is no oracle there; see TestVisibleTilesNonFinite
			}
		}
		var p sphere.Projection = sphere.Equirectangular{}
		if cube {
			p = sphere.CubeMap{}
		}
		checkVisibleMatchesRef(t, refGrids[int(grid)%len(refGrids)], p,
			sphere.Orientation{Yaw: yaw, Pitch: pitch, Roll: roll}, sphere.FoV{Width: w, Height: h})
	})
}

// TestTileAtAlwaysValid is the regression for clamping before the int
// conversion: +Inf and NaN used to come back as tile -9223372036854775796.
func TestTileAtAlwaysValid(t *testing.T) {
	g := GridCellular
	cases := []struct {
		x    float64
		last bool // lands in the last column (row), not the first
	}{
		{math.NaN(), false},
		{math.Inf(-1), false},
		{math.Inf(1), true},
		{math.Copysign(0, -1), false},
		{0, false},
		{1, true},
		{math.Nextafter(1, 0), true},
		{math.MaxFloat64, true},
		{-math.MaxFloat64, false},
	}
	for _, cu := range cases {
		for _, cv := range cases {
			id := g.TileAt(cu.x, cv.x)
			if !g.Valid(id) {
				t.Fatalf("TileAt(%v, %v) = %d, not a tile of the grid", cu.x, cv.x, id)
			}
			wantRow, wantCol := 0, 0
			if cv.last {
				wantRow = g.Rows - 1
			}
			if cu.last {
				wantCol = g.Cols - 1
			}
			if row, col := g.RowCol(id); row != wantRow || col != wantCol {
				t.Fatalf("TileAt(%v, %v) = row %d col %d, want row %d col %d", cu.x, cv.x, row, col, wantRow, wantCol)
			}
		}
	}
}

// TestVisibleTilesNonFinite: a NaN or infinite view or FoV used to
// yield the single tile id math.MinInt64, which callers then indexed
// with.
func TestVisibleTilesNonFinite(t *testing.T) {
	g := GridCellular
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, view := range []sphere.Orientation{{Yaw: bad}, {Pitch: bad}, {Roll: bad}} {
			for _, p := range refProjs {
				for _, id := range VisibleTiles(g, p, view, sphere.DefaultFoV) {
					if !g.Valid(id) {
						t.Fatalf("VisibleTiles(%s, %+v) holds tile %d", p.Name(), view, id)
					}
				}
			}
		}
		for _, id := range VisibleTiles(g, sphere.Equirectangular{}, sphere.Orientation{}, sphere.FoV{Width: bad, Height: 90}) {
			if !g.Valid(id) {
				t.Fatalf("VisibleTiles(fov width %v) holds tile %d", bad, id)
			}
		}
	}
	if got := VisibleTiles(Grid{}, sphere.Equirectangular{}, sphere.Orientation{}, sphere.DefaultFoV); got != nil {
		t.Fatalf("VisibleTiles on the zero grid = %v, want nil", got)
	}
}

// TestTileAtMatchesReference: on finite coordinates, in range or out,
// the float-side clamp picks the cell the int-side clamp picked —
// including at k/n exactly and one ulp either side of it.
func TestTileAtMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, g := range refGrids {
		check := func(u, v float64) {
			t.Helper()
			if got, want := g.TileAt(u, v), tileAtRef(g, u, v); got != want {
				t.Fatalf("%dx%d TileAt(%v, %v) = %d, reference %d", g.Rows, g.Cols, u, v, got, want)
			}
		}
		for k := 0; k <= g.Cols; k++ {
			for r := 0; r <= g.Rows; r++ {
				u, v := float64(k)/float64(g.Cols), float64(r)/float64(g.Rows)
				check(u, v)
				check(math.Nextafter(u, 2), math.Nextafter(v, -1))
				check(math.Nextafter(u, -1), math.Nextafter(v, 2))
			}
		}
		for n := 0; n < 20_000; n++ {
			check(rng.Float64()*3-1, rng.Float64()*3-1)
		}
		check(1e15, -1e15)
	}
}

func TestVisibleTilesAllocs(t *testing.T) {
	view := sphere.Orientation{Yaw: 42, Pitch: 17}
	allocs := testing.AllocsPerRun(100, func() {
		VisibleTiles(GridCellular, sphere.Equirectangular{}, view, sphere.DefaultFoV)
	})
	if allocs > 1 {
		t.Fatalf("VisibleTiles allocates %v times per call, want the result only", allocs)
	}
}

// TestRingAndDistancesMatchReference runs the slice BFS against the map
// BFS on random tile sets, including empty sets, duplicates and ids
// outside the grid.
func TestRingAndDistancesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	grids := append([]Grid{{Rows: 1, Cols: 2}, {Rows: 3, Cols: 1}, {Rows: 2, Cols: 3}}, refGrids...)
	for n := 0; n < 5000; n++ {
		g := grids[n%len(grids)]
		set := make([]TileID, rng.Intn(6))
		for i := range set {
			set[i] = TileID(rng.Intn(g.Tiles()+4) - 2)
		}
		want := distancesRef(g, set)
		got := Distances(g, set)
		if len(got) != g.Tiles() {
			t.Fatalf("Distances has %d entries for %d tiles", len(got), g.Tiles())
		}
		for id, d := range got {
			w, ok := want[TileID(id)]
			if !ok {
				w = -1
			}
			if d != w {
				t.Fatalf("%dx%d set %v: distance of tile %d = %d, reference %d", g.Rows, g.Cols, set, id, d, w)
			}
		}
		for dist := -1; dist <= 4; dist++ {
			if got, want := Ring(g, set, dist), ringRef(g, set, dist); !slices.Equal(got, want) {
				t.Fatalf("%dx%d Ring(%v, %d) = %v, reference %v", g.Rows, g.Cols, set, dist, got, want)
			}
		}
	}
}
