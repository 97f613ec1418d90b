package cluster

import (
	"context"
	"sync"

	"sperke/internal/serve"
)

// Asynchronous warm tier. Replication warms used to run synchronously
// on the serving path — the viewer's response did not complete until
// every co-owner held the copy — which made E23's zero-incremental-
// origin-fetch property an exact counter equality but put O(R) cache
// writes inside the serving p99. The warm queue moves those writes
// (and the crowd-prior pre-warms) onto a single background worker
// behind a bounded drop-oldest queue: serving enqueues and returns,
// the worker drains, and overload degrades to dropped warms
// (cluster.warm_drops) instead of a slower tail. The equality survives
// in eventual form — DrainWarms blocks until the worker has gone idle
// over an empty queue, after which every enqueued warm has been
// applied or dropped, and the counters can be asserted exactly.

// warmJob is one unit of background warm work. A replica warm carries
// the just-served body and its pre-computed targets; a pre-warm
// carries only the key (body == nil) and resolves owners, fetches the
// origin, and writes at execution time.
type warmJob struct {
	key     serve.ChunkKey
	body    []byte
	targets []*Node
}

// warmQueue is a bounded FIFO drained by one lazily-started worker
// goroutine. All fields are guarded by mu except the channels, which
// are only ever touched outside it (the lockscope checker enforces
// exactly that shape): enqueue appends under mu then signals wake
// after unlocking, and the worker collects drain waiters under mu but
// closes them unlocked.
type warmQueue struct {
	mu      sync.Mutex
	jobs    []warmJob
	pending map[serve.ChunkKey]struct{} // pre-warm keys queued but not yet executed
	waiters []chan struct{}             // DrainWarms callers, released at idle-empty
	idle    bool                        // worker is parked (or not yet started)
	started bool
	stopped bool

	wake chan struct{} // capacity 1: coalesces enqueue signals
	stop chan struct{}
}

func newWarmQueue() *warmQueue {
	return &warmQueue{
		pending: make(map[serve.ChunkKey]struct{}),
		idle:    true,
		wake:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
	}
}

// enqueueWarm queues a job, dropping the oldest entry when the queue
// is full, and starts the worker on first use. Jobs enqueued after
// Close are discarded.
func (c *Cluster) enqueueWarm(j warmJob) {
	q := c.warmQ
	q.mu.Lock()
	if q.stopped {
		q.mu.Unlock()
		return
	}
	if len(q.jobs) >= c.cfg.warmQueueCap {
		old := q.jobs[0]
		copy(q.jobs, q.jobs[1:])
		q.jobs[len(q.jobs)-1] = warmJob{}
		q.jobs = q.jobs[:len(q.jobs)-1]
		if old.body == nil {
			delete(q.pending, old.key)
		}
		c.met.warmDrops.Inc()
	}
	q.jobs = append(q.jobs, j)
	start := !q.started
	q.started = true
	q.mu.Unlock()
	if start {
		go c.warmWorker()
	}
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// markPending records a pre-warm key as queued; false means the key is
// already waiting and the caller should not enqueue a duplicate.
func (q *warmQueue) markPending(key serve.ChunkKey) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.stopped {
		return false
	}
	if _, dup := q.pending[key]; dup {
		return false
	}
	q.pending[key] = struct{}{}
	return true
}

// warmWorker is the queue's single consumer. It parks on wake when the
// queue empties — releasing any drain waiters first, so DrainWarms
// unblocks exactly at the all-applied point — and exits on stop,
// abandoning whatever is still queued (Close is a teardown, not a
// flush).
func (c *Cluster) warmWorker() {
	q := c.warmQ
	for {
		q.mu.Lock()
		if q.stopped {
			ws := q.waiters
			q.waiters = nil
			q.mu.Unlock()
			releaseWaiters(ws)
			return
		}
		if len(q.jobs) == 0 {
			q.idle = true
			ws := q.waiters
			q.waiters = nil
			q.mu.Unlock()
			releaseWaiters(ws)
			select {
			case <-q.wake:
			case <-q.stop:
			}
			continue
		}
		j := q.jobs[0]
		copy(q.jobs, q.jobs[1:])
		q.jobs[len(q.jobs)-1] = warmJob{}
		q.jobs = q.jobs[:len(q.jobs)-1]
		q.idle = false
		q.mu.Unlock()
		c.runWarmJob(j)
	}
}

func releaseWaiters(ws []chan struct{}) {
	for _, w := range ws {
		close(w)
	}
}

// runWarmJob applies one dequeued job on the worker goroutine.
func (c *Cluster) runWarmJob(j warmJob) {
	if j.body != nil {
		for _, t := range j.targets {
			if t.Warm(j.key, j.body) {
				c.met.warms.Inc()
			}
		}
		return
	}
	c.runPrewarm(j.key)
}

// runPrewarm executes one crowd-prior pre-warm: resolve the key's
// current live cold owners, synthesize the body from the origin once,
// and write it into each of them. Owners are resolved at execution
// time, not enqueue time, so membership churn between the two cannot
// warm a node that no longer owns the key. The origin fetch is
// deliberately direct — not through a node store — so node miss
// counters and cluster.origin_fetches keep meaning "a viewer waited on
// this synthesis"; speculative fetches count under
// cluster.prewarm_fetches instead.
func (c *Cluster) runPrewarm(key serve.ChunkKey) {
	defer c.clearPending(key)
	m := c.mem.Load()
	var buf [rankBuf]rankedNode
	ranked := rankInto(buf[:0], key, m.ids)
	targets := coldOwners(m, ranked[:min(c.cfg.replication, len(ranked))], "", key)
	if len(targets) == 0 {
		return
	}
	if c.coal.inFlight(key) {
		// A viewer is fetching this key right now; its flight will warm
		// the owners on the way past.
		return
	}
	body, err := c.origin.Chunk(warmCtx(), key.Video, key.Quality, key.Tile, key.Index, key.Layer)
	if err != nil {
		return
	}
	c.met.prewarmFetches.Inc()
	for _, t := range targets {
		if t.Warm(key, body) {
			c.met.prewarms.Inc()
		}
	}
}

func (c *Cluster) clearPending(key serve.ChunkKey) {
	q := c.warmQ
	q.mu.Lock()
	delete(q.pending, key)
	q.mu.Unlock()
}

// DrainWarms blocks until the warm worker has applied (or dropped)
// every job enqueued before the call — the explicit synchronization
// point that turns the async tier's eventual properties back into
// exact counter equalities for tests and experiment harnesses. Returns
// immediately when the queue is already drained or the cluster is
// closed.
func (c *Cluster) DrainWarms() {
	q := c.warmQ
	q.mu.Lock()
	if q.stopped || (q.idle && len(q.jobs) == 0) {
		q.mu.Unlock()
		return
	}
	w := make(chan struct{})
	q.waiters = append(q.waiters, w)
	q.mu.Unlock()
	<-w
}

// Close stops the warm worker and retires every member, closing its
// listener and the router's connections to it. Queued jobs are
// abandoned — Close is the cluster's teardown, and a warm that never
// lands only costs a future cache miss. Idempotent; safe to call on a
// cluster whose worker never started.
func (c *Cluster) Close() {
	q := c.warmQ
	q.mu.Lock()
	if q.stopped {
		q.mu.Unlock()
		return
	}
	defer func() {
		for _, n := range c.Nodes() {
			n.retire()
		}
	}()
	q.stopped = true
	started := q.started
	ws := q.waiters
	q.waiters = nil
	q.mu.Unlock()
	close(q.stop)
	if !started {
		// No worker will ever run to release waiters (there can be none,
		// since DrainWarms returns early on an idle queue, but keep the
		// invariant explicit).
		releaseWaiters(ws)
	}
}

// warmCtx is the root context for background warm work — replica
// writes and pre-warm syntheses belong to no viewer request, so there
// is nothing to inherit from. Named (and allowlisted by the ctxflow
// checker) to keep context.Background out of the rest of the package.
func warmCtx() context.Context { return context.Background() }
