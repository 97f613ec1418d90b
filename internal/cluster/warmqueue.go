package cluster

import (
	"context"
	"sync"

	"sperke/internal/serve"
)

// Asynchronous pre-warm tier. Crowd-prior pre-warms are speculative
// origin syntheses no viewer is waiting on, so serving must not wait on
// them either: serving enqueues a predicted key and returns, and a
// single background worker drains a bounded drop-oldest queue, so
// overload degrades to dropped pre-warms (cluster.warm_drops) instead
// of a slower tail. DrainWarms blocks until the worker has gone idle
// over an empty queue, after which every enqueued pre-warm has been
// applied or dropped, and the counters can be asserted exactly. Replica
// warms do not come here: a replica warm is one Store.Put of the served
// body per cold co-owner, which the serving goroutine does in line.

// warmQueue is a bounded FIFO of pre-warm keys drained by one
// lazily-started worker goroutine. All fields are guarded by mu except
// the channels and ctx, which are only ever touched outside it
// (TestPrewarmFetchesPredictedNeighbors fails within 10 s if a drain
// wait or a pre-warm runs under mu): enqueue appends under
// mu then signals wake after unlocking, and the worker collects drain
// waiters under mu but closes them unlocked. ctx, the root of every
// pre-warm synthesis, is canceled by close.
type warmQueue struct {
	mu      sync.Mutex
	jobs    []serve.ChunkKey
	pending map[serve.ChunkKey]struct{} // keys queued but not yet executed
	waiters []chan struct{}             // DrainWarms callers, released at idle-empty
	idle    bool                        // worker is parked (or not yet started)
	started bool
	stopped bool

	wake   chan struct{} // capacity 1: coalesces enqueue signals
	ctx    context.Context
	cancel context.CancelFunc
}

func newWarmQueue() *warmQueue {
	// Pre-warm syntheses belong to no viewer request, so there is
	// nothing to inherit from; close cancels the root
	// (TestCloseStopsAStalledPrewarm).
	ctx, cancel := context.WithCancel(context.Background())
	return &warmQueue{
		pending: make(map[serve.ChunkKey]struct{}),
		idle:    true,
		wake:    make(chan struct{}, 1),
		ctx:     ctx,
		cancel:  cancel,
	}
}

// enqueueWarm queues a pre-warm of key, dropping the oldest entry when
// the queue is full, and starts the worker on first use. Keys enqueued
// after Close are discarded.
func (c *Cluster) enqueueWarm(key serve.ChunkKey) {
	q := c.warmQ
	q.mu.Lock()
	if q.stopped {
		q.mu.Unlock()
		return
	}
	if len(q.jobs) >= c.cfg.warmQueueCap {
		delete(q.pending, q.jobs[0])
		q.jobs = append(q.jobs[:0], q.jobs[1:]...)
		c.met.warmDrops.Inc()
	}
	q.jobs = append(q.jobs, key)
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

// markPending records a key as queued; false means the key is
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
// unblocks exactly at the all-applied point — and exits once close
// cancels the queue's context, abandoning whatever is still queued
// (Close is a teardown, not a flush).
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
			case <-q.ctx.Done():
			}
			continue
		}
		key := q.jobs[0]
		q.jobs = append(q.jobs[:0], q.jobs[1:]...)
		q.idle = false
		q.mu.Unlock()
		c.runPrewarm(key)
	}
}

func releaseWaiters(ws []chan struct{}) {
	for _, w := range ws {
		close(w)
	}
}

// runPrewarm executes one crowd-prior pre-warm: resolve the key's
// current live cold owners, synthesize the body from the origin once,
// and write it into each of them. Owners are resolved at execution
// time, not enqueue time, so membership churn between the two cannot
// warm a node that no longer owns the key. The origin fetch is a pull
// (the edges keep the body) and deliberately direct — not through a
// node store — so node miss counters and cluster.origin_fetches keep
// meaning "a viewer waited on this synthesis"; speculative fetches
// count under cluster.prewarm_fetches instead.
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
		// A viewer's walk holds this key's flight open. An edge's whole
		// body warms the co-owners before the flight closes; a relay's
		// kept copy warms them only after, so a pre-warm in that window
		// may repeat the synthesis.
		return
	}
	body, err := c.pull(c.warmQ.ctx, key)
	if err != nil {
		return
	}
	c.met.prewarmFetches.Inc()
	for _, t := range targets {
		if t.warm(key, body) {
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
// every pre-warm enqueued before the call — the explicit synchronization
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

// close stops the worker, abandoning whatever is still queued and
// canceling the synthesis in progress, so a stalled origin cannot hold
// it past Close; a worker that has started releases the DrainWarms
// waiters as it exits, and one that never started has none. Close
// calls it once.
func (q *warmQueue) close() {
	q.mu.Lock()
	q.stopped = true
	q.mu.Unlock()
	q.cancel()
}
