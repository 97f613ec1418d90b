package abr

import "testing"

// planOOS is one OOS plan at a 90° prediction radius, three rings deep —
// as wide as a session's plans get.
func planOOS(tb testing.TB) func() {
	in := testOOSInput(tb, 90)
	pol := OOSPolicy{MaxRing: 3}
	return func() { PlanOOS(in, pol) }
}

// TestPlanOOSAllocs: a plan is its candidates, the distance table they
// are ranked by and the BFS queue behind it; nothing per tile.
func TestPlanOOSAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, planOOS(t)); n > 3 {
		t.Fatalf("PlanOOS allocates %.0f objects, want at most 3", n)
	}
}

func BenchmarkPlanOOS(b *testing.B) {
	plan := planOOS(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		plan()
	}
}
