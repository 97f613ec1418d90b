// Package multipath implements §3.3: streaming tiled 360° video over
// several network paths at once (e.g. WiFi + LTE). Two strategies are
// provided and compared by experiment E8:
//
//   - MPTCPLike reproduces the content-agnostic state of the art [5]:
//     the application sees one logical pipe and every chunk's bytes are
//     split across the actual paths, so completion is gated by the
//     slower subflow and cross-path reordering adds delay [36].
//
//   - ContentAware is the paper's proposal: chunks keep their identity,
//     and the scheduler uses the Table 1 priorities — FoV and urgent
//     chunks ride the better path with reliable delivery, OOS chunks
//     ride the weaker path best-effort. Paths stay decoupled, so there
//     is no cross-path head-of-line blocking, and losing an OOS chunk
//     costs only a low-quality tile rather than a stall.
package multipath

import (
	"time"

	"sperke/internal/netem"
	"sperke/internal/obs"
	"sperke/internal/transport"
)

// MPTCPLike is the content-agnostic baseline: each chunk is split
// across all paths proportionally to their instantaneous rates, and the
// chunk completes when its last subflow completes, plus a reordering
// penalty proportional to subflow skew (the cross-path out-of-order
// problem measured by [36]).
type MPTCPLike struct {
	Paths []*netem.Path
	Clock obs.Clock
}

// reorderPenalty scales the skew between MPTCPLike's fastest and slowest
// subflow into reassembly delay.
const reorderPenalty = 0.25

// NewMPTCPLike builds the baseline over the given paths.
func NewMPTCPLike(clock obs.Clock, paths ...*netem.Path) *MPTCPLike {
	return &MPTCPLike{Paths: paths, Clock: clock}
}

// failNoPath completes a request a scheduler with no paths cannot
// carry: OnDone sees a failed delivery of its bytes.
func failNoPath(r *transport.Request) {
	if r.OnDone != nil {
		r.OnDone(netem.Delivery{Bytes: r.Bytes, OK: false}, false)
	}
}

// Name implements transport.Scheduler.
func (m *MPTCPLike) Name() string { return "mptcp" }

// Submit implements transport.Scheduler.
func (m *MPTCPLike) Submit(r *transport.Request) {
	if len(m.Paths) == 0 {
		failNoPath(r)
		return
	}
	now := m.Clock.Now()
	// Split proportional to current raw rates.
	rates := make([]float64, len(m.Paths))
	var total float64
	for i, p := range m.Paths {
		rates[i] = p.RateAt(now)
		if rates[i] <= 0 || rates[i] != rates[i] { // zero or NaN
			rates[i] = 1
		}
		total += rates[i]
	}
	remaining := len(m.Paths)
	var firstDone, lastDone time.Duration
	var start time.Duration = -1
	allOK := true
	for i, p := range m.Paths {
		share := int64(float64(r.Bytes) * rates[i] / total)
		if i == len(m.Paths)-1 {
			share = r.Bytes - int64(float64(r.Bytes)*(total-rates[i])/total)
		}
		if share <= 0 {
			share = 1
		}
		p.Transfer(share, netem.Reliable, func(d netem.Delivery) {
			if start < 0 || d.Start < start {
				start = d.Start
			}
			if firstDone == 0 || d.Done < firstDone {
				firstDone = d.Done
			}
			if d.Done > lastDone {
				lastDone = d.Done
			}
			if !d.OK {
				allOK = false
			}
			remaining--
			if remaining == 0 && r.OnDone != nil {
				skew := lastDone - firstDone
				done := lastDone + time.Duration(float64(skew)*reorderPenalty)
				r.OnDone(netem.Delivery{
					Start: start, Done: done, Bytes: r.Bytes, OK: allOK,
				}, done <= r.Deadline)
			}
		})
	}
}

// ContentAware is the paper's priority-driven scheduler. It keeps a
// Table 1 priority queue per path and routes by chunk role: FoV and
// urgent chunks to the path with the shortest estimated completion
// (reliable QoS); OOS chunks to the remaining path (best-effort QoS) —
// "prioritize FoV and OOS chunks over the high-quality and low-quality
// paths, and deliver them in different transport-layer QoS" (§3.3).
type ContentAware struct {
	Paths []*netem.Path
	Clock obs.Clock
	// DuplicateUrgent, when set, sends urgent chunks on every path at
	// once and takes the first arrival — the redundancy/network-coding
	// idea the section closes with [22].
	DuplicateUrgent bool

	queues []transport.Queue
	active []int
}

// NewContentAware builds the scheduler over the given paths.
func NewContentAware(clock obs.Clock, paths ...*netem.Path) *ContentAware {
	return &ContentAware{
		Paths:  paths,
		Clock:  clock,
		queues: make([]transport.Queue, len(paths)),
		active: make([]int, len(paths)),
	}
}

// Name implements transport.Scheduler.
func (c *ContentAware) Name() string { return "content-aware" }

// bestPath returns the index of the path with the shortest estimated
// completion for the given size, or -1 when the scheduler has no paths
// (mirroring otherPath's handling of the degenerate case instead of
// panicking on Paths[0]).
func (c *ContentAware) bestPath(bytes int64) int {
	if len(c.Paths) == 0 {
		return -1
	}
	best := 0
	bestT := c.Paths[0].EstimateTransferTime(bytes)
	for i := 1; i < len(c.Paths); i++ {
		if t := c.Paths[i].EstimateTransferTime(bytes); t < bestT {
			best, bestT = i, t
		}
	}
	return best
}

// ensure sizes the per-path queue state so a ContentAware assembled as
// a struct literal (skipping NewContentAware) is still safe to use.
func (c *ContentAware) ensure() {
	if len(c.queues) != len(c.Paths) {
		c.queues = make([]transport.Queue, len(c.Paths))
		c.active = make([]int, len(c.Paths))
	}
}

// otherPath returns the least-loaded path other than avoid (or avoid
// itself when it is the only path).
func (c *ContentAware) otherPath(avoid int, bytes int64) int {
	best := -1
	var bestT time.Duration
	for i := range c.Paths {
		if i == avoid {
			continue
		}
		t := c.Paths[i].EstimateTransferTime(bytes)
		if best < 0 || t < bestT {
			best, bestT = i, t
		}
	}
	if best < 0 {
		return avoid
	}
	return best
}

// Submit implements transport.Scheduler. With zero paths every request
// fails fast — OnDone fires with an unsuccessful delivery instead of
// silently vanishing (or panicking), so callers waiting on completion
// are never left hanging.
func (c *ContentAware) Submit(r *transport.Request) {
	if len(c.Paths) == 0 {
		failNoPath(r)
		return
	}
	c.ensure()
	if r.Urgent && c.DuplicateUrgent && len(c.Paths) > 1 {
		c.submitDuplicated(r)
		return
	}
	var idx int
	if r.Class == transport.ClassFoV || r.Urgent {
		idx = c.bestPath(r.Bytes)
	} else {
		idx = c.otherPath(c.bestPath(r.Bytes), r.Bytes)
	}
	c.queues[idx].Push(r)
	c.pump(idx)
}

// submitDuplicated races the chunk on every path; the first completed
// copy wins.
func (c *ContentAware) submitDuplicated(r *transport.Request) {
	done := false
	for i := range c.Paths {
		c.Paths[i].Transfer(r.Bytes, netem.Reliable, func(d netem.Delivery) {
			if done || !d.OK {
				return
			}
			done = true
			if r.OnDone != nil {
				r.OnDone(d, d.Done <= r.Deadline)
			}
		})
	}
}

func (c *ContentAware) pump(idx int) {
	if c.active[idx] > 0 {
		return
	}
	r := c.queues[idx].Pop()
	if r == nil {
		return
	}
	c.active[idx]++
	qos := netem.Reliable
	if r.Class == transport.ClassOOS && !r.Urgent {
		qos = netem.BestEffort
	}
	c.Paths[idx].Transfer(r.Bytes, qos, func(d netem.Delivery) {
		c.active[idx]--
		if r.OnDone != nil {
			r.OnDone(d, d.OK && d.Done <= r.Deadline)
		}
		c.pump(idx)
	})
}
