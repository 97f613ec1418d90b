package netem

import (
	"math"
	"testing"
	"time"

	"sperke/internal/sim"
)

func TestOutageDefersReliableTransfer(t *testing.T) {
	clock := sim.NewClock(1)
	p := NewPath(clock, "wifi", Constant(8e6), 0, 0)
	p.AddOutage(0, 2*time.Second)
	var d Delivery
	p.Transfer(1e6, Reliable, func(x Delivery) { d = x })
	clock.Run()
	// Service begins at the window's end: 2s wait + 1s transfer.
	if !d.OK {
		t.Fatal("reliable transfer through an outage must still deliver")
	}
	if d.Service != 2*time.Second {
		t.Fatalf("Service = %v, want 2s (outage end)", d.Service)
	}
	if d.Done != 3*time.Second {
		t.Fatalf("Done = %v, want 3s", d.Done)
	}
}

func TestOutageDropsBestEffortDeterministically(t *testing.T) {
	// Every best-effort transfer beginning inside the window is lost —
	// no randomness involved, so two runs agree exactly.
	for run := 0; run < 2; run++ {
		clock := sim.NewClock(42)
		p := NewPath(clock, "lte", Constant(8e6), 0, 0)
		p.AddOutage(time.Second, 3*time.Second)
		var inWindow, after Delivery
		clock.Schedule(2*time.Second, func() {
			p.Transfer(1e5, BestEffort, func(d Delivery) { inWindow = d })
		})
		clock.Schedule(3*time.Second, func() {
			p.Transfer(1e5, BestEffort, func(d Delivery) { after = d })
		})
		clock.Run()
		if inWindow.OK {
			t.Fatal("best-effort transfer inside an outage survived")
		}
		if inWindow.Done != 3*time.Second {
			t.Fatalf("loss observed at %v, want 3s (outage end)", inWindow.Done)
		}
		if !after.OK {
			t.Fatal("transfer after the outage was lost")
		}
	}
}

func TestOutageLossDoesNotConsumeLinkTime(t *testing.T) {
	clock := sim.NewClock(1)
	p := NewPath(clock, "lte", Constant(8e6), 0, 0)
	p.AddOutage(0, time.Second)
	p.Transfer(1e6, BestEffort, nil) // lost in the window
	var d Delivery
	clock.Schedule(time.Second, func() {
		p.Transfer(1e6, Reliable, func(x Delivery) { d = x })
	})
	clock.Run()
	if d.Done != 2*time.Second {
		t.Fatalf("Done = %v, want 2s — the lost transfer must not occupy the link", d.Done)
	}
	if p.BytesMoved() != 1e6 {
		t.Fatalf("BytesMoved = %d, want only the delivered 1e6", p.BytesMoved())
	}
}

func TestInOutageAndChainedWindows(t *testing.T) {
	clock := sim.NewClock(1)
	p := NewPath(clock, "wifi", Constant(8e6), 0, 0)
	p.AddOutage(time.Second, 2*time.Second)
	p.AddOutage(2*time.Second, 4*time.Second) // chained: starts where the first ends
	for _, tc := range []struct {
		at time.Duration
		in bool
	}{
		{0, false}, {time.Second, true}, {1500 * time.Millisecond, true},
		{2 * time.Second, true}, {3999 * time.Millisecond, true}, {4 * time.Second, false},
	} {
		if got := p.InOutage(tc.at); got != tc.in {
			t.Fatalf("InOutage(%v) = %v, want %v", tc.at, got, tc.in)
		}
	}
	// A reliable transfer at 1s defers past both chained windows.
	var d Delivery
	clock.Schedule(time.Second, func() {
		p.Transfer(1e6, Reliable, func(x Delivery) { d = x })
	})
	clock.Run()
	if d.Service != 4*time.Second {
		t.Fatalf("Service = %v, want 4s (end of the chained windows)", d.Service)
	}
}

func TestEstimateTransferTimeSeesOutage(t *testing.T) {
	clock := sim.NewClock(1)
	p := NewPath(clock, "wifi", Constant(8e6), 0, 0)
	p.AddOutage(0, 5*time.Second)
	if est := p.EstimateTransferTime(1e6); est < 5*time.Second {
		t.Fatalf("estimate %v ignores a 5s outage", est)
	}
}

func TestStallFreezesQueue(t *testing.T) {
	clock := sim.NewClock(1)
	p := NewPath(clock, "wifi", Constant(8e6), 0, 0)
	p.Stall(2 * time.Second)
	var d Delivery
	p.Transfer(1e6, Reliable, func(x Delivery) { d = x })
	// A stall shorter than the current backlog is a no-op: the queue
	// already extends to 3s.
	p.Stall(time.Second)
	var d2 Delivery
	p.Transfer(1e6, Reliable, func(x Delivery) { d2 = x })
	clock.Run()
	if d.Service != 2*time.Second || d.Done != 3*time.Second {
		t.Fatalf("Service/Done = %v/%v, want 2s/3s after a 2s stall", d.Service, d.Done)
	}
	if d2.Done != 4*time.Second {
		t.Fatalf("Done = %v, want 4s", d2.Done)
	}
}

func TestClampCarvesWindow(t *testing.T) {
	tr := Constant(8e6).Clamp(2*time.Second, 4*time.Second, 1e6)
	for _, tc := range []struct {
		at   time.Duration
		want float64
	}{
		{0, 8e6}, {2 * time.Second, 1e6}, {3 * time.Second, 1e6},
		{4 * time.Second, 8e6}, {time.Minute, 8e6},
	} {
		if got := tr.RateAt(tc.at); got != tc.want {
			t.Fatalf("RateAt(%v) = %v, want %v", tc.at, got, tc.want)
		}
	}
	// A transfer starting in the window finishes against the clamped
	// schedule: 1 Mbit capacity in the remaining 1s of window, the rest
	// at 8 Mbit/s.
	fin := tr.finishTime(3*time.Second, 1e6) // 8 Mbit total
	want := 4*time.Second + time.Duration(float64(8e6-1e6)/8e6*float64(time.Second))
	if diff := fin - want; diff < -time.Millisecond || diff > time.Millisecond {
		t.Fatalf("FinishTime = %v, want ~%v", fin, want)
	}
}

func TestClampZeroMakesBlackout(t *testing.T) {
	tr := Constant(8e6).Clamp(time.Second, 2*time.Second, 0)
	if tr.RateAt(1500*time.Millisecond) != 0 {
		t.Fatal("window not blacked out")
	}
	// A transfer spanning the blackout stalls through it.
	fin := tr.finishTime(0, 2e6) // 16 Mbit: 8 Mbit by 1s, stall, rest after 2s
	if fin != 3*time.Second {
		t.Fatalf("FinishTime = %v, want 3s", fin)
	}
}

func TestClampNilBaseIsUnlimitedOutsideWindow(t *testing.T) {
	var base *BandwidthTrace
	tr := base.Clamp(time.Second, 2*time.Second, 1e6)
	if !math.IsInf(tr.RateAt(0), 1) || !math.IsInf(tr.RateAt(3*time.Second), 1) {
		t.Fatal("nil base must stay unlimited outside the window")
	}
	if tr.RateAt(time.Second) != 1e6 {
		t.Fatal("window not clamped on nil base")
	}
}

func TestClampPreservesStepsAndComposes(t *testing.T) {
	tr := MustSteps(Step{0, 8e6}, Step{10 * time.Second, 2e6})
	clamped := tr.Clamp(5*time.Second, 15*time.Second, 4e6)
	if clamped.RateAt(0) != 8e6 {
		t.Fatal("pre-window step changed")
	}
	if clamped.RateAt(5*time.Second) != 4e6 {
		t.Fatal("window start not clamped")
	}
	if clamped.RateAt(12*time.Second) != 2e6 {
		t.Fatal("in-window rate below the cap must pass through")
	}
	if clamped.RateAt(15*time.Second) != 2e6 {
		t.Fatal("post-window rate wrong")
	}
	// Clamps compose: a second window on the already-clamped trace.
	twice := clamped.Clamp(0, 2*time.Second, 1e6)
	if twice.RateAt(time.Second) != 1e6 || twice.RateAt(6*time.Second) != 4e6 {
		t.Fatal("composed clamp wrong")
	}
}

func TestClampDegenerateWindowIsNoOp(t *testing.T) {
	tr := Constant(8e6)
	if got := tr.Clamp(5*time.Second, 5*time.Second, 0); got != tr {
		t.Fatal("empty window should return the receiver")
	}
	if got := tr.Clamp(5*time.Second, time.Second, 0); got != tr {
		t.Fatal("inverted window should return the receiver")
	}
}
