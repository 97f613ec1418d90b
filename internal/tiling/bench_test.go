package tiling

import (
	"testing"
	"time"

	"sperke/internal/sphere"
	"sperke/internal/trace"
)

// queryGrids are the grids a viewport query is budgeted and timed on,
// each with what one query may allocate: the result, and past 64 tiles
// a seen-set too big for the stack. The 10x20 case is there for
// the column search: a border bisection that grew with the column count
// would lose to the one atan2 it replaces on a wide grid before it did
// on the 4×6 one.
var queryGrids = []struct {
	name   string
	g      Grid
	allocs float64
}{{"4x6", GridCellular, 1}, {"10x20", Grid{Rows: 10, Cols: 20}, 2}}

// visibleQuery is one query of a viewport built once, as a session asks
// it. TestViewportVisibleAllocs holds it to queryGrids' budgets;
// BenchmarkVisibleTiles times it. Successive calls walk the views of one
// drawn head trace, 20 ms apart, as a session's do: one view asked over
// and over trains the branch predictor and flatters a path whose
// control flow follows the borders (it sold a sweep at 0.50× that head
// traces ran at 0.79×). A wall-clock claim still goes through bench/'s
// viewer_sim.
func visibleQuery(g Grid) func() {
	vp := NewViewport(g, sphere.DefaultFoV)
	head := trace.Draw(1, 61, trace.UserProfile{SpeedScale: 1}, 60*time.Second)
	n := 0
	return func() {
		vp.Visible(head.Samples[n].View)
		if n++; n == len(head.Samples) {
			n = 0
		}
	}
}

func BenchmarkVisibleTiles(b *testing.B) {
	for _, bc := range queryGrids {
		b.Run(bc.name, func(b *testing.B) {
			query := visibleQuery(bc.g)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				query()
			}
		})
	}
}

// ringQuery is the two-tile ring around a forward-looking FoV.
func ringQuery() func() {
	g := GridCellular
	fov := VisibleTiles(g, sphere.Orientation{}, sphere.DefaultFoV)
	return func() { Ring(g, fov, 2) }
}

// TestRingAllocs: the BFS's distance table and queue, sized by the grid,
// and the ring as append grows it — six objects.
func TestRingAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, ringQuery()); n > 6 {
		t.Fatalf("Ring allocates %.0f objects, want at most 6", n)
	}
}

func BenchmarkRing(b *testing.B) {
	ring := ringQuery()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ring()
	}
}
