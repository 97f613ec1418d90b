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

// health is one node's failure detector: a transport.Breaker — the
// repo's existing consecutive-failure trip, cooldown and half-open probe
// admission, reused rather than paralleled — plus the state last
// mirrored into the cluster.health.* instruments. The mutex is the
// node's own, needed because the breaker is documented single-owner and
// here every request goroutine routed to the node reports into it. A
// re-added name is a fresh Node, so it starts with a fresh breaker and
// none of its predecessor's failure history.
type health struct {
	mu      sync.Mutex
	breaker *transport.Breaker
	last    transport.BreakerState // last published; a fresh breaker is closed
	gone    bool                   // removed from the membership

	alive *obs.Gauge // cluster.health.<id>.alive; set to 1 when the node is published
	downs *obs.Counter
	ups   *obs.Counter
}

func newHealth(id string, cfg HealthConfig, clock obs.Clock, reg *obs.Registry) *health {
	return &health{
		breaker: transport.NewBreaker(clock, transport.BreakerConfig{
			FailureThreshold: cfg.FailThreshold,
			Cooldown:         cfg.Cooldown,
			ProbeSuccesses:   cfg.ProbeSuccesses,
		}),
		alive: reg.Gauge("cluster.health." + id + ".alive"),
		downs: reg.Counter("cluster.health.down_transitions"),
		ups:   reg.Counter("cluster.health.up_transitions"),
	}
}

// remove marks the node as out of the membership: its gauge drops to 0
// and a request still walking a snapshot taken before the removal is
// refused here, its outcome ignored.
func (h *health) remove() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.gone = true
	h.alive.Set(0)
}

// allow reports whether a request (or probe) may be sent to the node
// right now: always while believed alive, never during a down node's
// cooldown, one trial at a time once the cooldown passes.
func (h *health) allow() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.gone {
		return false
	}
	ok := h.breaker.Allow()
	h.publishLocked()
	return ok
}

// observe feeds one request or probe outcome into the node's breaker.
func (h *health) observe(err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.gone {
		return
	}
	if err != nil {
		h.breaker.OnFailure()
	} else {
		h.breaker.OnSuccess()
	}
	h.publishLocked()
}

// healthy reports whether the node is currently believed alive. Unlike
// allow it never consumes a half-open breaker's trial admission, so
// warm decisions cannot eat the token a probe needs.
func (h *health) healthy() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return !h.gone && h.breaker.State() == transport.BreakerClosed
}

// publishLocked mirrors breaker transitions into the cluster.health.*
// instruments: down on entering Open, up on returning to Closed. The
// half-open window keeps the alive gauge at 0 — the node is a suspect
// on trial, not a member in good standing.
func (h *health) publishLocked() {
	s, prev := h.breaker.State(), h.last
	if s == prev {
		return
	}
	h.last = s
	switch s {
	case transport.BreakerOpen:
		h.alive.Set(0)
		// Re-opening from a failed half-open probe is the same outage
		// continuing, not a new down transition.
		if prev == transport.BreakerClosed {
			h.downs.Inc()
		}
	case transport.BreakerClosed:
		h.ups.Inc()
		h.alive.Set(1)
	}
}
