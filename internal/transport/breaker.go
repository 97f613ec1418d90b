package transport

import (
	"time"

	"sperke/internal/obs"
)

// BreakerState is the classic circuit-breaker state machine.
type BreakerState int

// Breaker states.
const (
	// BreakerClosed: the path is healthy; requests flow.
	BreakerClosed BreakerState = iota
	// BreakerOpen: the path tripped; requests are routed elsewhere until
	// the cooldown passes.
	BreakerOpen
	// breakerHalfOpen: the cooldown passed; one probe request is allowed
	// through to test recovery.
	breakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	default:
		return "half-open"
	}
}

// metricName is the state's suffix in transition counter names
// (half-open loses its dash so metric names stay word-shaped).
func (s BreakerState) metricName() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	default:
		return "half_open"
	}
}

// BreakerConfig tunes a per-path circuit breaker. Zero values mean
// defaults.
type BreakerConfig struct {
	// FailureThreshold trips the breaker after this many consecutive
	// failures — delivery failures or deadline misses; 0 defaults to 3.
	FailureThreshold int
	// Cooldown is how long an open breaker waits before allowing a
	// half-open probe; 0 defaults to 2s.
	Cooldown time.Duration
	// ProbeSuccesses closes a half-open breaker after this many
	// consecutive successful probes; 0 defaults to 1.
	ProbeSuccesses int
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 2 * time.Second
	}
	if c.ProbeSuccesses <= 0 {
		c.ProbeSuccesses = 1
	}
	return c
}

// BreakerTransition records one state change, for observability and
// chaos-test assertions.
type BreakerTransition struct {
	At       time.Duration
	From, To BreakerState
}

// maxTransitions bounds a breaker's state-change log; beyond it the log
// keeps its first entries and drops the rest (Opened and Reclosed stay
// exact), so a long-lived breaker on a flapping path cannot grow it
// without bound.
const maxTransitions = 1024

// Breaker is a circuit breaker over the sim clock: it tracks
// consecutive deadline misses and delivery failures on one path, opens
// when they cross the threshold, and probes for recovery after a
// cooldown. Not safe for concurrent use; the scheduler owns it.
type Breaker struct {
	cfg   BreakerConfig
	clock obs.Clock

	// Obs, when set, counts state transitions
	// (transport.breaker.to_{open,half_open,closed}); every breaker on a
	// registry adds to the same counters. Set it before the breaker first
	// trips.
	Obs *obs.Registry

	state       BreakerState
	consecFails int
	probeOK     int
	probing     bool
	openedAt    time.Duration
	transitions []BreakerTransition
}

// NewBreaker builds a closed breaker on the given clock.
func NewBreaker(clock obs.Clock, cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults(), clock: clock}
}

func (b *Breaker) transition(to BreakerState) {
	if b.state == to {
		return
	}
	if len(b.transitions) < maxTransitions {
		b.transitions = append(b.transitions, BreakerTransition{At: b.clock.Now(), From: b.state, To: to})
	}
	b.state = to
	b.Obs.Counter("transport.breaker.to_" + to.metricName()).Inc()
}

// State reports the current state, promoting Open to HalfOpen once the
// cooldown has passed.
func (b *Breaker) State() BreakerState {
	if b.state == BreakerOpen && b.clock.Now() >= b.openedAt+b.cfg.Cooldown {
		b.transition(breakerHalfOpen)
		b.probing = false
		b.probeOK = 0
	}
	return b.state
}

// Allow reports whether a request may be dispatched now: always in
// Closed, never in Open, and one probe at a time in HalfOpen.
func (b *Breaker) Allow() bool {
	switch b.State() {
	case BreakerClosed:
		return true
	case breakerHalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	default:
		return false
	}
}

// OnSuccess records a clean delivery that met its deadline.
func (b *Breaker) OnSuccess() {
	b.probing = false
	switch b.State() {
	case breakerHalfOpen:
		b.probeOK++
		if b.probeOK >= b.cfg.ProbeSuccesses {
			b.consecFails = 0
			b.transition(BreakerClosed)
		}
	case BreakerClosed:
		b.consecFails = 0
	}
}

// OnFailure records a delivery failure or deadline miss.
func (b *Breaker) OnFailure() {
	b.probing = false
	switch b.State() {
	case breakerHalfOpen:
		// The probe failed: back to a full cooldown.
		b.open()
	case BreakerClosed:
		b.consecFails++
		if b.consecFails >= b.cfg.FailureThreshold {
			b.open()
		}
	}
}

func (b *Breaker) open() {
	b.openedAt = b.clock.Now()
	b.probeOK = 0
	b.transition(BreakerOpen)
}

// retryAt reports when an open breaker will allow its next probe (zero
// when the breaker is not open).
func (b *Breaker) retryAt() time.Duration {
	if b.state != BreakerOpen {
		return 0
	}
	return b.openedAt + b.cfg.Cooldown
}

// Transitions returns a copy of the state-change log: the first
// maxTransitions state changes.
func (b *Breaker) Transitions() []BreakerTransition {
	out := make([]BreakerTransition, len(b.transitions))
	copy(out, b.transitions)
	return out
}
