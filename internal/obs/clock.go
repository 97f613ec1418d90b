package obs

import "time"

// Clock is the time source components measure against. *sim.Clock
// satisfies it, so simulated pipelines time themselves in virtual time;
// Wall adapts time.Now for the real-socket substrates.
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
