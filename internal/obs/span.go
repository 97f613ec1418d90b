package obs

import "time"

// Clock is the time source spans read. *sim.Clock satisfies it, so
// simulated pipelines trace in virtual time; Wall adapts time.Now for
// the real-socket substrates.
type Clock interface {
	Now() time.Duration
}

// Wall is a Clock reporting wall time elapsed since its creation.
type Wall struct {
	epoch time.Time
}

// NewWall returns a wall clock anchored at time.Now.
func NewWall() *Wall { return &Wall{epoch: time.Now()} }

// Now reports wall time since the epoch.
func (w *Wall) Now() time.Duration { return time.Since(w.epoch) }

// Tracer records pipeline-stage spans against a Clock. Each completed
// span lands in the registry histogram "span.<stage>_ms". Safe for
// concurrent use; a nil *Tracer is a no-op.
type Tracer struct {
	reg   *Registry
	clock Clock
}

// NewTracer builds a tracer recording into reg (a nil reg records
// nothing). A nil clock returns a nil, no-op tracer.
func NewTracer(reg *Registry, clock Clock) *Tracer {
	if clock == nil {
		return nil
	}
	return &Tracer{reg: reg, clock: clock}
}

// Span is an open span; call End to complete it. The zero Span is a
// no-op, so code can unconditionally End spans from a nil tracer.
type Span struct {
	t     *Tracer
	stage string
	start time.Duration
}

// Start opens a span for a pipeline stage.
func (t *Tracer) Start(stage string) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, stage: stage, start: t.clock.Now()}
}

// End completes the span, recording it, and returns its duration.
func (s Span) End() time.Duration {
	if s.t == nil {
		return 0
	}
	end := s.t.clock.Now()
	s.t.record(s.stage, s.start, end)
	return end - s.start
}

// Record logs a span retroactively — for stages whose timing is known
// after the fact (a modeled encode delay, a delivery callback that
// carries its own start/done stamps).
func (t *Tracer) Record(stage string, start, end time.Duration) {
	if t == nil || end < start {
		return
	}
	t.record(stage, start, end)
}

func (t *Tracer) record(stage string, start, end time.Duration) {
	t.reg.Histogram("span." + stage + "_ms").Observe(float64(end-start) / float64(time.Millisecond))
}
