package obs

import (
	"testing"
	"time"

	"sperke/internal/sim"
)

// TestSpanTimingWithSimClock runs spans on the deterministic sim clock
// and checks that each stage's histogram holds its exact duration.
func TestSpanTimingWithSimClock(t *testing.T) {
	clock := sim.NewClock(1)
	reg := NewRegistry()
	tr := NewTracer(reg, clock)

	// Schedule a little pipeline: upload 0→200ms, transcode 200→250ms,
	// fetch 250→400ms.
	type stage struct {
		name       string
		start, end time.Duration
	}
	stages := []stage{
		{StageUpload, 0, 200 * time.Millisecond},
		{StageTranscode, 200 * time.Millisecond, 250 * time.Millisecond},
		{StageFetch, 250 * time.Millisecond, 400 * time.Millisecond},
	}
	for _, st := range stages {
		st := st
		clock.Schedule(st.start, func() {
			sp := tr.Start(st.name)
			clock.Schedule(st.end, func() {
				if d := sp.End(); d != st.end-st.start {
					t.Errorf("%s span measured %v, want %v", st.name, d, st.end-st.start)
				}
			})
		})
	}
	clock.Run()

	// Histogram side effect, in milliseconds.
	for _, st := range stages {
		want := float64(st.end-st.start) / float64(time.Millisecond)
		if s := reg.Histogram("span." + st.name + "_ms").Stat(); s.Count != 1 || s.Sum != want {
			t.Fatalf("%s span histogram count=%d sum=%v, want 1/%vms", st.name, s.Count, s.Sum, want)
		}
	}
}

// TestTracerRecordRetroactive covers Record for stages timed by
// delivery callbacks, and its refusal of negative spans.
func TestTracerRecordRetroactive(t *testing.T) {
	clock := sim.NewClock(2)
	reg := NewRegistry()
	tr := NewTracer(reg, clock)
	tr.Record(StageEncode, 100*time.Millisecond, 130*time.Millisecond)
	tr.Record(StageEncode, 200*time.Millisecond, 150*time.Millisecond) // negative: dropped
	if s := reg.Histogram("span." + StageEncode + "_ms").Stat(); s.Count != 1 || s.Sum != 30 {
		t.Fatalf("retroactive record wrong: %+v", s)
	}
}

// TestNilTracerIsNoOp pins the disabled tracing path.
func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	sp := tr.Start(StageFetch)
	if d := sp.End(); d != 0 {
		t.Fatalf("nil tracer span measured %v", d)
	}
	tr.Record(StageFetch, 0, time.Second)
	if NewTracer(NewRegistry(), nil) != nil {
		t.Fatal("tracer without a clock must be nil")
	}
}
