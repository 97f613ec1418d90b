// Package obs is Sperke's observability substrate: a pure-stdlib
// metrics registry (counters, gauges, whole-run histograms with
// p50/p95/p99) plus the Clock seam that lets a component time itself
// in simulated or wall time.
//
// The paper's evaluation is entirely quantitative — Table 2 E2E
// latency, Figure 5 player FPS — and this
// package makes those signals visible inside a live run rather than
// only in test assertions: breaker trips, failover reroutes,
// decode-deadline misses and cache hit ratios all land here.
//
// Everything is nil-safe: a nil *Registry hands out nil instruments,
// and every instrument method on a nil receiver is a no-op costing one
// branch. Components therefore take an optional *Registry and pay
// nothing when observability is off. Default returns the process-wide
// registry the CLIs expose over /metrics and expvar.
package obs

import (
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64. Safe for concurrent
// use; all methods are no-ops on a nil receiver.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous int64 value (queue depth, cache bytes).
// Safe for concurrent use; no-op on a nil receiver.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry holds named instruments. Instruments are created on first
// use and live for the registry's lifetime; looking up the same name
// always returns the same instrument. A nil *Registry is the disabled
// registry: every lookup returns nil and every recording is a cheap
// no-op.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// defaultRegistry is the process-wide registry the CLIs expose.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return lookup(r, r.counters, name, func() *Counter { return &Counter{} })
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return lookup(r, r.gauges, name, func() *Gauge { return &Gauge{} })
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	return lookup(r, r.hists, name, newHistogram)
}

// lookup returns m[name], creating it with mk under the write lock if a
// read-locked lookup misses.
func lookup[T any](r *Registry, m map[string]*T, name string, mk func() *T) *T {
	r.mu.RLock()
	v, ok := m[name]
	r.mu.RUnlock()
	if ok {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok = m[name]; ok {
		return v
	}
	v = mk()
	m[name] = v
	return v
}

// Snapshot is a point-in-time copy of every instrument, shaped for
// JSON (the /metrics endpoint and -metrics-json dumps).
type Snapshot struct {
	Counters   map[string]int64         `json:"counters"`
	Gauges     map[string]int64         `json:"gauges"`
	Histograms map[string]HistogramStat `json:"histograms"`
}

// Snapshot captures every instrument. On a nil registry it returns an
// empty (but non-nil-mapped) snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramStat),
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Stat()
	}
	return s
}
