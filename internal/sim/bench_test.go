package sim

import (
	"testing"
	"time"
)

// clockStep is the event loop of a session at rest: eight events
// pending, each firing schedules its successor.
func clockStep() func() {
	c := NewClock(1)
	var tick func()
	tick = func() { c.After(8*time.Millisecond, tick) }
	for i := 0; i < 8; i++ {
		c.After(time.Duration(i)*time.Millisecond, tick)
	}
	c.Step() // the first firing grows the free list
	return func() { c.Step() }
}

// TestClockScheduleStepAllocs: the clock keeps its event records, so
// the steady state allocates nothing.
func TestClockScheduleStepAllocs(t *testing.T) {
	n := testing.AllocsPerRun(1000, clockStep())
	t.Logf("a Step that schedules its successor allocates %.0f objects (budget 0)", n)
	if n != 0 {
		t.Fatalf("a Step that schedules its successor allocates %.0f objects, want 0", n)
	}
}

func BenchmarkClockScheduleStep(b *testing.B) {
	step := clockStep()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}
