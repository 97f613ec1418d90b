package sim

import (
	"testing"
	"time"
)

// BenchmarkClockScheduleStep is the event loop of a session at rest:
// eight events pending, each firing schedules its successor. The clock
// keeps its records, so the steady state allocates nothing.
func BenchmarkClockScheduleStep(b *testing.B) {
	c := NewClock(1)
	var tick func()
	tick = func() { c.After(8*time.Millisecond, tick) }
	for i := 0; i < 8; i++ {
		c.After(time.Duration(i)*time.Millisecond, tick)
	}
	c.Step() // the first firing grows the free list
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step()
	}
}
