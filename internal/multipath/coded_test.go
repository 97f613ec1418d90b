package multipath

import (
	"testing"
	"time"

	"sperke/internal/netem"
	"sperke/internal/sim"
	"sperke/internal/transport"
)

func TestCodedDeliversOnCleanPaths(t *testing.T) {
	clock := sim.NewClock(1)
	a := netem.NewPath(clock, "a", netem.Constant(8e6), 5*time.Millisecond, 0)
	b := netem.NewPath(clock, "b", netem.Constant(8e6), 5*time.Millisecond, 0)
	c := &coded{Clock: clock, Paths: []*netem.Path{a, b}}
	var d netem.Delivery
	calls := 0
	c.Submit(mkReq(1, transport.ClassFoV, false, 1e6, time.Minute, func(x netem.Delivery, ok bool) {
		calls++
		d = x
		if !ok {
			t.Error("clean-path coded transfer missed deadline")
		}
	}))
	clock.Run()
	if calls != 1 {
		t.Fatalf("OnDone called %d times", calls)
	}
	if !d.OK || d.Bytes != 1e6 {
		t.Fatalf("delivery %+v", d)
	}
	// K=4 of 5 fragments suffice: completion must beat a serialized
	// full transfer on one path (1 s).
	if d.Done >= time.Second {
		t.Fatalf("coded completion %v not faster than single path", d.Done)
	}
}

func TestCodedSurvivesFragmentLoss(t *testing.T) {
	// With R=2 repair fragments, losing up to 2 fragments still
	// completes the chunk.
	clock := sim.NewClock(3)
	lossy := netem.NewPath(clock, "lossy", netem.Constant(50e6), 0, 0.05)
	clean := netem.NewPath(clock, "clean", netem.Constant(50e6), 0, 0)
	c := &coded{Clock: clock, Paths: []*netem.Path{clean, lossy}}
	c.DataFragments, c.RepairFragments = 4, 2
	oks, losses := 0, 0
	for i := 0; i < 100; i++ {
		c.Submit(mkReq(i, transport.ClassFoV, false, 800_000, time.Hour, func(d netem.Delivery, ok bool) {
			if d.OK {
				oks++
			} else {
				losses++
			}
		}))
	}
	clock.Run()
	if oks == 0 {
		t.Fatal("coded scheduler never completed a chunk")
	}
	// Redundancy must recover most chunks despite 5% fragment loss on
	// half the fragments.
	if float64(oks)/float64(oks+losses) < 0.9 {
		t.Fatalf("only %d/%d chunks recovered", oks, oks+losses)
	}
}

func TestCodedReportsLossWhenCodeInsufficient(t *testing.T) {
	// Zero repair fragments on a very lossy path: some chunks must fail
	// and report OK=false exactly once.
	clock := sim.NewClock(7)
	lossy := netem.NewPath(clock, "lossy", netem.Constant(50e6), 0, 0.3)
	c := &coded{Clock: clock, Paths: []*netem.Path{lossy}}
	c.DataFragments, c.RepairFragments = 4, 0
	calls, losses := 0, 0
	for i := 0; i < 50; i++ {
		c.Submit(mkReq(i, transport.ClassFoV, false, 800_000, time.Hour, func(d netem.Delivery, ok bool) {
			calls++
			if !d.OK {
				losses++
			}
		}))
	}
	clock.Run()
	if calls != 50 {
		t.Fatalf("OnDone called %d times for 50 chunks", calls)
	}
	if losses == 0 {
		t.Fatal("30% loss with no repair never lost a chunk")
	}
}

func TestCodedRedundancyOverheadBounded(t *testing.T) {
	clock := sim.NewClock(1)
	a := netem.NewPath(clock, "a", netem.Constant(100e6), 0, 0)
	c := &coded{Clock: clock, Paths: []*netem.Path{a}}
	c.DataFragments, c.RepairFragments = 4, 1
	c.Submit(mkReq(1, transport.ClassFoV, false, 1_000_000, time.Hour, nil))
	clock.Run()
	// 5 fragments of 250 KB = 1.25 MB on the wire: 25% overhead.
	if a.BytesMoved() > 1_300_000 {
		t.Fatalf("wire bytes %d exceed K+R overhead bound", a.BytesMoved())
	}
	if a.BytesMoved() < 1_200_000 {
		t.Fatalf("wire bytes %d below expected redundancy", a.BytesMoved())
	}
}

func TestCodedDefaults(t *testing.T) {
	c := &coded{}
	if c.k() != 4 || c.r() != 1 {
		t.Fatalf("defaults K=%d R=%d, want 4/1", c.k(), c.r())
	}
	c.DataFragments = 8
	if c.r() != 0 {
		t.Fatalf("explicit K with zero R should mean R=0, got %d", c.r())
	}
}
