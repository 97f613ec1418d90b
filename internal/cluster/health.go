package cluster

import (
	"sync"
	"time"

	"sperke/internal/obs"
	"sperke/internal/transport"
)

// HealthConfig tunes the router's failure detector. Zero values mean
// defaults.
type HealthConfig struct {
	// FailThreshold consecutive failures — passive routed-request
	// errors or failed active probes — declare a node down; 0 defaults
	// to 3.
	FailThreshold int
	// ProbeSuccesses consecutive clean probes re-admit a down node; 0
	// defaults to 2, so one lucky probe against a flapping node does
	// not restore full traffic.
	ProbeSuccesses int
	// Cooldown is how long a down node is left alone before probes are
	// allowed through again; 0 defaults to 500ms.
	Cooldown time.Duration
	// ProbeInterval paces StartProbes sweeps; 0 defaults to 250ms.
	ProbeInterval time.Duration
}

func (c HealthConfig) withDefaults() HealthConfig {
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.ProbeSuccesses <= 0 {
		c.ProbeSuccesses = 2
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 500 * time.Millisecond
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 250 * time.Millisecond
	}
	return c
}

// health is the router's view of which edges can take traffic: one
// transport.Breaker per node behind a mutex. The breaker is the repo's
// existing failure-detection state machine — consecutive-failure trip,
// cooldown, half-open probe admission — so the cluster reuses it
// rather than growing a parallel one; the mutex is needed because the
// breaker itself is documented single-owner and here every request
// goroutine reports into it.
type health struct {
	mu       sync.Mutex
	breakers map[string]*transport.Breaker
	last     map[string]transport.BreakerState // last published state

	// Kept so dynamically added members (Cluster.AddNode) get breakers
	// built from the same recipe as the founders.
	cfg   HealthConfig
	clock obs.Clock
	reg   *obs.Registry

	aliveGauges map[string]*obs.Gauge
	downs       *obs.Counter
	ups         *obs.Counter
}

// newHealth builds the detector with no members; add registers each node
// as it joins.
func newHealth(cfg HealthConfig, clock obs.Clock, reg *obs.Registry) *health {
	return &health{
		breakers:    make(map[string]*transport.Breaker),
		last:        make(map[string]transport.BreakerState),
		cfg:         cfg.withDefaults(),
		clock:       clock,
		reg:         reg,
		aliveGauges: make(map[string]*obs.Gauge),
		downs:       reg.Counter("cluster.health.down_transitions"),
		ups:         reg.Counter("cluster.health.up_transitions"),
	}
}

// add registers one node with the detector, believed alive and with a
// fresh breaker — a re-added name does not inherit its predecessor's
// failure history. Idempotent for present members.
func (h *health) add(id string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.breakers[id] != nil {
		return
	}
	h.breakers[id] = transport.NewBreaker(h.clock, transport.BreakerConfig{
		FailureThreshold: h.cfg.FailThreshold,
		Cooldown:         h.cfg.Cooldown,
		ProbeSuccesses:   h.cfg.ProbeSuccesses,
	})
	delete(h.last, id)
	g := h.reg.Gauge("cluster.health." + id + ".alive")
	g.Set(1)
	h.aliveGauges[id] = g
}

// remove forgets one node; its gauge drops to 0 and later allow calls
// for the name refuse.
func (h *health) remove(id string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if g := h.aliveGauges[id]; g != nil {
		g.Set(0)
	}
	delete(h.breakers, id)
	delete(h.last, id)
	delete(h.aliveGauges, id)
}

// allow reports whether a request (or probe) may be sent to the node
// right now: always while believed alive, never during a down node's
// cooldown, one trial at a time once the cooldown passes.
func (h *health) allow(id string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	b := h.breakers[id]
	if b == nil {
		return false
	}
	ok := b.Allow()
	h.publishLocked(id)
	return ok
}

// observe feeds one request or probe outcome into the node's breaker.
func (h *health) observe(id string, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	b := h.breakers[id]
	if b == nil {
		return
	}
	if err != nil {
		b.OnFailure()
	} else {
		b.OnSuccess()
	}
	h.publishLocked(id)
}

// alive reports whether the node is currently believed healthy.
// Unlike allow it never consumes a half-open breaker's trial
// admission, so warm decisions and snapshots cannot eat the token a
// probe needs.
func (h *health) alive(id string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	b := h.breakers[id]
	return b != nil && b.State() == transport.BreakerClosed
}

// state reports the node's current breaker state.
func (h *health) state(id string) transport.BreakerState {
	h.mu.Lock()
	defer h.mu.Unlock()
	b := h.breakers[id]
	if b == nil {
		return transport.BreakerOpen
	}
	s := b.State()
	h.publishLocked(id)
	return s
}

// publishLocked mirrors breaker transitions into the cluster.health.*
// instruments: down on entering Open, up on returning to Closed. The
// half-open window keeps the alive gauge at 0 — the node is a suspect
// on trial, not a member in good standing.
func (h *health) publishLocked(id string) {
	s := h.breakers[id].State()
	prev, seen := h.last[id]
	if seen && s == prev {
		return
	}
	h.last[id] = s
	switch {
	case s == transport.BreakerOpen:
		h.aliveGauges[id].Set(0)
		// Re-opening from a failed half-open probe is the same outage
		// continuing, not a new down transition.
		if !seen || prev == transport.BreakerClosed {
			h.downs.Inc()
		}
	case s == transport.BreakerClosed && seen && prev != transport.BreakerClosed:
		h.ups.Inc()
		h.aliveGauges[id].Set(1)
	}
}
