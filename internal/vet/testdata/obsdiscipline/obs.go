//sperke:fixture path=internal/obs/obs.go

// Package obs is the stub of the real registry the fixtures import:
// just the instrument types and the methods the fixtures call.
package obs

type Counter struct{ n int64 }

func (c *Counter) Inc() { c.n++ }

type Gauge struct{ v int64 }

func (g *Gauge) Set(v int64) { g.v = v }

type Histogram struct{ sum float64 }

func (h *Histogram) Observe(v float64) { h.sum += v }

type Registry struct{}

func (r *Registry) Counter(string) *Counter     { return &Counter{} }
func (r *Registry) Gauge(string) *Gauge         { return &Gauge{} }
func (r *Registry) Histogram(string) *Histogram { return &Histogram{} }

type Wall struct{ epoch int64 }
