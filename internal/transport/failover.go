package transport

import (
	"time"

	"sperke/internal/netem"
	"sperke/internal/obs"
	"sperke/internal/sim"
)

// PathStats is the per-path delivery accounting a Failover scheduler
// keeps — the observable chaos tests assert against.
type PathStats struct {
	// Dispatched counts transfers handed to the path.
	Dispatched int
	// Successes counts deliveries that arrived intact and on time.
	Successes int
	// Failures counts lost deliveries.
	Failures int
	// DeadlineMisses counts deliveries that arrived but late.
	DeadlineMisses int
	// Rerouted counts queued requests moved off this path after its
	// breaker tripped.
	Rerouted int
	// Retries counts failed deliveries redispatched from this path.
	Retries int
	// Expired counts queued requests shed because their deadline passed
	// before they could be dispatched.
	Expired int
	// Canceled counts queued requests shed because their submission
	// context (Request.Ctx) was canceled before they could be dispatched.
	Canceled int
}

// Failover is a multipath scheduler with a circuit breaker per path:
// consecutive deadline misses or delivery failures trip a path open,
// its queued requests reroute to healthy paths, and after a cooldown a
// single probe request tests recovery. This is the mechanism §3.3's
// "newly urgent chunk overtakes queued regular ones" implies for a
// degraded path: rather than letting urgent chunks drown behind a
// stalled queue, the whole queue moves.
type Failover struct {
	Clock *sim.Clock
	// MaxRetries bounds how many times one request is redispatched after
	// a lost delivery; 0 defaults to 2, negative disables retries.
	MaxRetries int

	paths    []*netem.Path
	breakers []*Breaker
	queues   []Queue
	active   []int
	stats    []PathStats
	wakeup   sim.Event // zero when no re-pump is armed
	met      failoverMetrics
}

// failoverMetrics caches the scheduler's instruments so hot-path
// updates are a pointer call; all fields are nil (no-op) until SetObs.
type failoverMetrics struct {
	queueDepth *obs.Gauge
	dispatched *obs.Counter
	successes  *obs.Counter
	failures   *obs.Counter
	misses     *obs.Counter
	rerouted   *obs.Counter
	retries    *obs.Counter
	expired    *obs.Counter
	canceled   *obs.Counter
}

// SetObs wires the scheduler (and every path breaker) into a metrics
// registry: queue depth gauge, dispatch/outcome counters, reroute and
// expiry-shed counts, breaker transition counters. A nil registry
// leaves everything a no-op.
func (f *Failover) SetObs(r *obs.Registry) {
	f.met = failoverMetrics{
		queueDepth: r.Gauge("transport.failover.queue_depth"),
		dispatched: r.Counter("transport.failover.dispatched"),
		successes:  r.Counter("transport.failover.successes"),
		failures:   r.Counter("transport.failover.failures"),
		misses:     r.Counter("transport.failover.deadline_misses"),
		rerouted:   r.Counter("transport.failover.rerouted"),
		retries:    r.Counter("transport.failover.retries"),
		expired:    r.Counter("transport.failover.expired"),
		canceled:   r.Counter("transport.failover.canceled"),
	}
	for _, b := range f.breakers {
		b.Obs = r
	}
}

// NewFailover builds the scheduler over the given paths, one breaker
// per path.
func NewFailover(clock *sim.Clock, cfg BreakerConfig, paths ...*netem.Path) *Failover {
	f := &Failover{
		Clock:    clock,
		paths:    paths,
		breakers: make([]*Breaker, len(paths)),
		queues:   make([]Queue, len(paths)),
		active:   make([]int, len(paths)),
		stats:    make([]PathStats, len(paths)),
	}
	for i := range paths {
		f.breakers[i] = NewBreaker(clock, cfg)
	}
	return f
}

// Name implements Scheduler.
func (f *Failover) Name() string { return "failover" }

// Breaker exposes path i's breaker for observation.
func (f *Failover) Breaker(i int) *Breaker { return f.breakers[i] }

// Stats returns path i's delivery accounting.
func (f *Failover) Stats(i int) PathStats { return f.stats[i] }

// TotalStats aggregates accounting across paths.
func (f *Failover) TotalStats() PathStats {
	var t PathStats
	for _, s := range f.stats {
		t.Dispatched += s.Dispatched
		t.Successes += s.Successes
		t.Failures += s.Failures
		t.DeadlineMisses += s.DeadlineMisses
		t.Rerouted += s.Rerouted
		t.Retries += s.Retries
		t.Expired += s.Expired
		t.Canceled += s.Canceled
	}
	return t
}

// Pending returns queued (not in-flight) requests across all paths.
func (f *Failover) Pending() int {
	n := 0
	for i := range f.queues {
		n += len(f.queues[i].h)
	}
	return n
}

func (f *Failover) maxRetries() int {
	if f.MaxRetries == 0 {
		return 2
	}
	if f.MaxRetries < 0 {
		return 0
	}
	return f.MaxRetries
}

// Submit implements Scheduler. A queued request whose context is done
// by dispatch (or retry) time is shed instead of spending wire time
// nobody is waiting for.
func (f *Failover) Submit(r *Request) {
	if len(f.paths) == 0 {
		shed(f.Clock, r)
		return
	}
	r.retries = 0
	f.enqueue(r)
}

// enqueue routes a request, new or on a retry, to a path's queue.
func (f *Failover) enqueue(r *Request) {
	idx := f.route(r.Bytes)
	f.queues[idx].Push(r)
	f.pump(idx)
	f.syncQueueGauge()
}

// syncQueueGauge mirrors the queued (not in-flight) request count into
// the queue-depth gauge.
func (f *Failover) syncQueueGauge() { f.met.queueDepth.Set(int64(f.Pending())) }

// route picks the non-open path with the shortest estimated completion;
// when every breaker is open it parks the request on the path that will
// probe soonest.
func (f *Failover) route(bytes int64) int {
	best, bestT := -1, time.Duration(0)
	for i, p := range f.paths {
		if f.breakers[i].State() == BreakerOpen {
			continue
		}
		if t := p.EstimateTransferTime(bytes); best < 0 || t < bestT {
			best, bestT = i, t
		}
	}
	if best >= 0 {
		return best
	}
	best = 0
	for i := 1; i < len(f.paths); i++ {
		if f.breakers[i].retryAt() < f.breakers[best].retryAt() {
			best = i
		}
	}
	return best
}

func (f *Failover) pump(i int) {
	// Shed queued requests whose deadline has already passed: delivering
	// them cannot help anymore, and after an outage a stale request
	// dispatched as the half-open probe would doom the probe on arrival,
	// keeping the breaker open indefinitely while fresh requests pile up
	// behind it. The idle check runs again after every shed: the shed
	// request's OnDone may have submitted another, and that call has
	// pumped this path.
	for {
		if f.active[i] > 0 {
			return
		}
		r := f.queues[i].peek()
		if r == nil || (f.Clock.Now() < r.Deadline && !r.canceled()) {
			break
		}
		f.queues[i].Pop()
		if r.canceled() {
			f.stats[i].Canceled++
			f.met.canceled.Inc()
		} else {
			f.stats[i].Expired++
			f.met.expired.Inc()
		}
		shed(f.Clock, r)
	}
	if len(f.queues[i].h) == 0 {
		return
	}
	switch f.breakers[i].State() {
	case BreakerOpen:
		f.reroute(i)
		return
	case breakerHalfOpen:
		if !f.breakers[i].Allow() {
			return // a probe is already in flight; wait for its verdict
		}
	}
	r := f.queues[i].Pop()
	f.dispatch(i, r)
}

func (f *Failover) dispatch(i int, r *Request) {
	f.active[i]++
	f.stats[i].Dispatched++
	f.met.dispatched.Inc()
	qos := netem.Reliable
	if r.Class == ClassOOS && !r.Urgent {
		qos = netem.BestEffort
	}
	f.paths[i].Transfer(r.Bytes, qos, func(d netem.Delivery) {
		f.active[i]--
		f.onDelivery(i, r, d)
		f.pump(i)
		f.syncQueueGauge()
	})
}

func (f *Failover) onDelivery(i int, r *Request, d netem.Delivery) {
	if d.OK && d.Done <= r.Deadline {
		f.stats[i].Successes++
		f.met.successes.Inc()
		f.breakers[i].OnSuccess()
		if r.OnDone != nil {
			r.OnDone(d, true)
		}
		return
	}
	f.breakers[i].OnFailure()
	if f.breakers[i].State() == BreakerOpen {
		f.reroute(i)
	}
	if !d.OK {
		f.stats[i].Failures++
		f.met.failures.Inc()
		// A lost delivery is worth another try on a (possibly different)
		// path while the deadline still stands and the submitter is still
		// listening.
		if r.retries < f.maxRetries() && f.Clock.Now() < r.Deadline && !r.canceled() {
			r.retries++
			f.stats[i].Retries++
			f.met.retries.Inc()
			f.enqueue(r)
			return
		}
	} else {
		f.stats[i].DeadlineMisses++
		f.met.misses.Inc()
	}
	if r.OnDone != nil {
		r.OnDone(d, false)
	}
}

// reroute drains path i's queue onto healthy paths; when none exist the
// requests stay parked and a wakeup is armed for the earliest probe.
func (f *Failover) reroute(i int) {
	if len(f.queues[i].h) == 0 {
		return
	}
	target, targetT := -1, time.Duration(0)
	for j, p := range f.paths {
		if j == i || f.breakers[j].State() == BreakerOpen {
			continue
		}
		if t := p.EstimateTransferTime(1); target < 0 || t < targetT {
			target, targetT = j, t
		}
	}
	if target < 0 {
		f.armWakeup()
		return
	}
	for {
		r := f.queues[i].Pop()
		if r == nil {
			break
		}
		f.stats[i].Rerouted++
		f.met.rerouted.Inc()
		f.queues[target].Push(r)
	}
	f.pump(target)
	f.syncQueueGauge()
}

// armWakeup schedules a re-pump at the earliest breaker probe time so
// parked requests move again once a cooldown expires — without it a
// total outage would strand the queues forever.
func (f *Failover) armWakeup() {
	if f.wakeup.At() > f.Clock.Now() {
		return
	}
	at := time.Duration(-1)
	for i := range f.breakers {
		// State() promotes Open→HalfOpen once the cooldown has passed, so a
		// breaker idle since its trip (empty queue, never pumped) cannot
		// keep a stale retryAt in the past and re-arm at the current
		// instant forever.
		f.breakers[i].State()
		if t := f.breakers[i].retryAt(); t > 0 && (at < 0 || t < at) {
			at = t
		}
	}
	if at <= f.Clock.Now() {
		// Nothing is open anymore; in-flight probes or the next delivery
		// will pump the queues.
		return
	}
	f.wakeup = f.Clock.Schedule(at, func() {
		f.wakeup = sim.Event{}
		for i := range f.paths {
			f.pump(i)
		}
		// Still fully open (no probe dispatched because every queue was
		// empty elsewhere)? Re-arm for the next probe window.
		if f.Pending() > 0 {
			f.armWakeup()
		}
	})
}
