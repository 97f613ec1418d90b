// Package transport moves chunk requests over emulated network paths.
// It defines the request vocabulary — every chunk carries the spatial
// and temporal priorities of Table 1 (FoV vs OOS, urgent vs regular) —
// and the scheduler interface that single-path and multipath strategies
// (§3.3) implement. Schedulers hold their own priority queues and keep
// at most a small number of transfers outstanding per path, so that a
// newly urgent chunk can overtake queued regular ones instead of
// drowning behind them. There is one way in, Scheduler.Submit: what the
// submitter wants to say about a request — its context included — is a
// field of the Request.
package transport

import (
	"context"
	"time"

	"sperke/internal/media"
	"sperke/internal/netem"
	"sperke/internal/obs"
	"sperke/internal/tiling"
)

// Class is the spatial priority of a chunk (Table 1).
type Class int

// Spatial priorities.
const (
	// ClassFoV marks chunks inside the predicted field of view.
	ClassFoV Class = iota
	// ClassOOS marks out-of-sight chunks fetched to absorb HMP error.
	ClassOOS
)

func (c Class) String() string {
	if c == ClassFoV {
		return "fov"
	}
	return "oos"
}

// Request is one chunk download.
type Request struct {
	Chunk tiling.ChunkID
	// Bytes is media.Video.SpanBytes of Encoding, From and Chunk. From
	// is the lowest quality (SVC: layer) the request carries: 0 for a
	// first fetch, h+1 for an upgrade of a copy held at quality h. The
	// zero Encoding and From ask for the whole chunk.
	Bytes    int64
	Encoding media.Encoding
	From     int
	// Deadline is the playback time by which the chunk must arrive.
	Deadline time.Duration
	// Class is the spatial priority; Urgent the temporal one (Table 1).
	// A chunk turns urgent when an HMP correction leaves it a very short
	// deadline (§3.3).
	Class  Class
	Urgent bool
	// Probability the chunk will be displayed (1 for FoV chunks).
	Probability float64
	// OnDone receives the delivery outcome and whether the deadline was
	// met. May be nil. Every scheduler calls it exactly once per
	// submission — delivered, lost for good, or shed — and it is the
	// scheduler's last touch of the Request: the callback may overwrite
	// the struct and submit it again as a new request before it returns.
	OnDone func(d netem.Delivery, metDeadline bool)
	// Ctx is the submitter's context; nil means Background. SinglePath
	// and Failover check it at their dispatch points (a sim-clock
	// scheduler cannot observe cancellation between events): a request
	// whose context is done by then is shed — completed through OnDone
	// with a failed delivery — instead of occupying the wire.
	Ctx context.Context

	seq     int // submission order, for stable tie-breaks
	retries int // redispatches consumed after lost deliveries (Failover)
}

// canceled reports whether the submitter no longer wants the request.
func (r *Request) canceled() bool {
	return r.Ctx != nil && r.Ctx.Err() != nil
}

// less orders requests by Table 1: urgent before regular, FoV before
// OOS, then earliest deadline, then submission order.
func (r *Request) less(o *Request) bool {
	if r.Urgent != o.Urgent {
		return r.Urgent
	}
	if r.Class != o.Class {
		return r.Class == ClassFoV
	}
	if r.Deadline != o.Deadline {
		return r.Deadline < o.Deadline
	}
	return r.seq < o.seq
}

// Queue is a priority queue of requests in Table 1 order. The zero
// value is ready to use.
type Queue struct {
	h   []*Request // a binary min-heap in Request.less order
	seq int
}

// Push enqueues a request, sifting it up from the bottom.
func (q *Queue) Push(r *Request) {
	r.seq = q.seq
	q.seq++
	h := append(q.h, r)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !r.less(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = r
	q.h = h
}

// Pop removes and returns the highest-priority request, or nil. The
// last request sifts down from the root into the hole it leaves.
func (q *Queue) Pop() *Request {
	h := q.h
	if len(h) == 0 {
		return nil
	}
	root, n := h[0], len(h)-1
	x := h[n]
	h[n] = nil
	h = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && h[r].less(h[l]) {
			l = r
		}
		if !h[l].less(x) {
			break
		}
		h[i] = h[l]
		i = l
	}
	if n > 0 {
		h[i] = x
	}
	q.h = h
	return root
}

// peek returns the highest-priority request without removing it, or
// nil.
func (q *Queue) peek() *Request {
	if len(q.h) == 0 {
		return nil
	}
	return q.h[0]
}

// Scheduler dispatches chunk requests onto network paths.
type Scheduler interface {
	// Name identifies the scheduler in experiment output.
	Name() string
	// Submit enqueues one request; the scheduler decides path, order and
	// QoS.
	Submit(r *Request)
}

// SubmitContext submits r to s under ctx.
func SubmitContext(s Scheduler, ctx context.Context, r *Request) {
	r.Ctx = ctx
	s.Submit(r)
}

// SinglePath sends everything over one path, reliably, in Table 1
// order, keeping one transfer in flight so priorities stay live.
type SinglePath struct {
	Path  *netem.Path
	Clock obs.Clock

	q Queue
	// cur is the request in flight, nil when the path is idle. One
	// transfer runs at a time, so its completion is the one method value
	// done, made on first use, rather than a closure per request.
	cur  *Request
	done func(netem.Delivery)
}

// NewSinglePath creates a single-path scheduler.
func NewSinglePath(clock obs.Clock, path *netem.Path) *SinglePath {
	return &SinglePath{Path: path, Clock: clock}
}

// Name implements Scheduler.
func (s *SinglePath) Name() string { return "single-path" }

// Submit implements Scheduler.
func (s *SinglePath) Submit(r *Request) {
	s.q.Push(r)
	s.pump()
}

// shed completes a request that will never be dispatched with a failed
// zero-service delivery at the current virtual time.
func shed(clock obs.Clock, r *Request) {
	if r.OnDone == nil {
		return
	}
	var now time.Duration
	if clock != nil {
		now = clock.Now()
	}
	r.OnDone(netem.Delivery{Start: now, Service: now, Done: now, Bytes: r.Bytes, OK: false}, false)
}

func (s *SinglePath) pump() {
	// The idle check runs again after every shed: the shed request's
	// OnDone may have submitted another, and that call has dispatched it.
	for s.cur == nil {
		r := s.q.Pop()
		if r == nil {
			return
		}
		if r.canceled() {
			shed(s.Clock, r)
			continue
		}
		s.cur = r
		if s.done == nil {
			s.done = s.delivered
		}
		s.Path.Transfer(r.Bytes, netem.Reliable, s.done)
	}
}

// delivered completes the request in flight and dispatches the next.
func (s *SinglePath) delivered(d netem.Delivery) {
	r := s.cur
	s.cur = nil
	if r.OnDone != nil {
		r.OnDone(d, d.Done <= r.Deadline)
	}
	s.pump()
}
