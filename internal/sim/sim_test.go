package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestClockStartsAtZero(t *testing.T) {
	c := NewClock(1)
	if c.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", c.Now())
	}
}

func TestScheduleOrdering(t *testing.T) {
	c := NewClock(1)
	var got []int
	c.Schedule(30*time.Millisecond, func() { got = append(got, 3) })
	c.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	c.Schedule(20*time.Millisecond, func() { got = append(got, 2) })
	c.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if c.Now() != 30*time.Millisecond {
		t.Fatalf("final time = %v, want 30ms", c.Now())
	}
}

func TestEqualTimestampsFIFO(t *testing.T) {
	c := NewClock(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		c.Schedule(time.Second, func() { got = append(got, i) })
	}
	c.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("FIFO violated: %v", got)
		}
	}
}

func TestAfterRelative(t *testing.T) {
	c := NewClock(1)
	var at time.Duration
	c.Schedule(time.Second, func() {
		c.After(500*time.Millisecond, func() { at = c.Now() })
	})
	c.Run()
	if at != 1500*time.Millisecond {
		t.Fatalf("After fired at %v, want 1.5s", at)
	}
}

func TestCancel(t *testing.T) {
	c := NewClock(1)
	fired := false
	e := c.Schedule(time.Second, func() { fired = true })
	e.Cancel()
	c.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelIdempotent(t *testing.T) {
	c := NewClock(1)
	e := c.Schedule(time.Second, func() {})
	e.Cancel()
	e.Cancel()
	c.Run() // must not panic
}

func TestSchedulePastPanics(t *testing.T) {
	c := NewClock(1)
	c.Schedule(time.Second, func() {})
	c.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	c.Schedule(time.Millisecond, func() {})
}

func TestRunUntilAdvancesToDeadline(t *testing.T) {
	c := NewClock(1)
	fired := 0
	c.Schedule(time.Second, func() { fired++ })
	c.Schedule(3*time.Second, func() { fired++ })
	c.RunUntil(2 * time.Second)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if c.Now() != 2*time.Second {
		t.Fatalf("Now = %v, want 2s", c.Now())
	}
	c.Run()
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

// TestRunUntilStopsAtDeadlineBehindCancelledRoot: a cancelled event at
// the head of the queue used to pass RunUntil's deadline check on behalf
// of whatever came next, which Step then fired however late it was due.
func TestRunUntilStopsAtDeadlineBehindCancelledRoot(t *testing.T) {
	c := NewClock(1)
	c.Schedule(time.Second, func() {}).Cancel()
	fired := false
	c.Schedule(5*time.Second, func() { fired = true })
	c.RunUntil(2 * time.Second)
	if fired {
		t.Fatal("RunUntil(2s) fired the event scheduled for 5s")
	}
	if c.Now() != 2*time.Second {
		t.Fatalf("Now = %v after RunUntil(2s), want 2s", c.Now())
	}
	c.Run()
	if !fired || c.Now() != 5*time.Second {
		t.Fatalf("after Run: fired = %v, Now = %v, want true, 5s", fired, c.Now())
	}
}

func TestHaltStopsRun(t *testing.T) {
	c := NewClock(1)
	n := 0
	for i := 1; i <= 10; i++ {
		c.Schedule(time.Duration(i)*time.Second, func() {
			n++
			if n == 3 {
				c.Halt()
			}
		})
	}
	c.Run()
	if n != 3 {
		t.Fatalf("ran %d events, want 3", n)
	}
	// Run can resume afterwards.
	c.Run()
	if n != 10 {
		t.Fatalf("ran %d events after resume, want 10", n)
	}
}

func TestRNGDeterministicAcrossClocks(t *testing.T) {
	a := NewClock(42)
	b := NewClock(42)
	// Create streams in different orders: the values must not depend on
	// creation order.
	_ = a.RNG("other")
	ra := a.RNG("net")
	rb := b.RNG("net")
	for i := 0; i < 100; i++ {
		if ra.Int63() != rb.Int63() {
			t.Fatal("same-name RNG streams diverged across clocks")
		}
	}
}

func TestRNGDistinctStreams(t *testing.T) {
	c := NewClock(42)
	a, b := c.RNG("a"), c.RNG("b")
	same := 0
	for i := 0; i < 64; i++ {
		if a.Int63() == b.Int63() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams %q and %q look identical (%d/64 equal)", "a", "b", same)
	}
}

func TestRNGSameNameSameStream(t *testing.T) {
	c := NewClock(7)
	if c.RNG("x") != c.RNG("x") {
		t.Fatal("RNG returned different objects for the same name")
	}
}

func TestNestedScheduling(t *testing.T) {
	c := NewClock(1)
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 100 {
			c.After(time.Millisecond, rec)
		}
	}
	c.After(0, rec)
	c.Run()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if c.Now() != 99*time.Millisecond {
		t.Fatalf("Now = %v, want 99ms", c.Now())
	}
}

func TestPendingCount(t *testing.T) {
	c := NewClock(1)
	for i := 0; i < 5; i++ {
		c.Schedule(time.Duration(i+1)*time.Second, func() {})
	}
	if len(c.queue) != 5 {
		t.Fatalf("%d events pending, want 5", len(c.queue))
	}
	c.Step()
	if len(c.queue) != 4 {
		t.Fatalf("%d events pending, want 4", len(c.queue))
	}
}

// Property: for any set of delays, Run visits events in nondecreasing
// time order and ends at the max delay.
func TestPropertyEventsMonotonic(t *testing.T) {
	f := func(delays []uint16) bool {
		c := NewClock(3)
		var last time.Duration = -1
		ok := true
		var maxAt time.Duration
		for _, d := range delays {
			at := time.Duration(d) * time.Millisecond
			if at > maxAt {
				maxAt = at
			}
			c.Schedule(at, func() {
				if c.Now() < last {
					ok = false
				}
				last = c.Now()
			})
		}
		c.Run()
		if len(delays) > 0 && c.Now() != maxAt {
			return false
		}
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeAfterClampsToNow(t *testing.T) {
	c := NewClock(1)
	fired := false
	c.Schedule(time.Second, func() {
		c.After(-time.Hour, func() { fired = true })
	})
	c.Run()
	if !fired {
		t.Fatal("After with negative delay never fired")
	}
}
