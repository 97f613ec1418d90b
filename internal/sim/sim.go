// Package sim provides a deterministic discrete-event simulation kernel
// used by every Sperke substrate that needs virtual time: the network
// emulator, the streaming session loop, the live-broadcast pipeline, and
// the player pipeline.
//
// The kernel is intentionally small: a virtual clock, a priority queue of
// timestamped events, and seeded random-number streams. Everything above
// it (links, players, servers) is expressed as events scheduled on a
// *Clock. Running the same scenario with the same seed produces
// byte-for-byte identical results, which is what makes the experiment
// harness reproducible.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Event is a handle on one scheduled callback, returned by Schedule and
// After. Events run in timestamp order; events with equal timestamps run
// in scheduling order (FIFO), which keeps the simulation deterministic
// without requiring callers to tie-break. The zero Event refers to
// nothing: At reports 0 and Cancel does nothing.
//
// The handle is a value, and it stays safe to use for as long as the
// holder likes: the clock reuses the record behind it once the event has
// fired or its cancellation has drained, and a handle whose sequence
// number no longer matches the record's has simply expired.
type Event struct {
	c   *Clock
	rec int // index in c.recs
	at  time.Duration
	seq uint64
}

// At reports the virtual time the event was scheduled for.
func (e Event) At() time.Duration { return e.at }

// Cancel prevents a pending event from firing. Cancelling an event that
// already fired (or was already cancelled) is a no-op, also when the
// clock has since reused its record for another event.
func (e Event) Cancel() {
	if e.c != nil {
		if r := &e.c.recs[e.rec]; r.seq == e.seq {
			r.fn = nil
		}
	}
}

// event is the clock's record of one scheduled callback. A nil fn marks
// it cancelled (in the queue) or idle (on the free list).
type event struct {
	seq uint64
	fn  func()
}

// entry is one queued event: its time and sequence number, the queue's
// order, and the index of its record in Clock.recs. It holds no
// pointer, so the sifts that move entries take no GC write barrier.
type entry struct {
	at  time.Duration
	seq uint64
	rec int
}

// before is the queue's order: time, then scheduling order.
func (e entry) before(o entry) bool {
	return e.at < o.at || e.at == o.at && e.seq < o.seq
}

// Clock is a virtual clock driving a discrete-event simulation. The zero
// value is not usable; create one with NewClock.
type Clock struct {
	now    time.Duration
	seq    uint64
	queue  []entry // a binary min-heap in entry.before order
	recs   []event // every record the clock has made
	free   []int   // indices in recs of records whose event fired or drained cancelled
	rngs   map[string]*rand.Rand
	seed   int64
	halted bool
}

// NewClock returns a clock at virtual time zero whose random streams are
// derived from seed.
func NewClock(seed int64) *Clock {
	return &Clock{rngs: make(map[string]*rand.Rand), seed: seed}
}

// Now reports the current virtual time.
func (c *Clock) Now() time.Duration { return c.now }

// RNG returns the named deterministic random stream, creating it on
// first use. Distinct names give independent streams; the same name
// always gives the same stream for a given clock seed, regardless of the
// order streams are created in.
func (c *Clock) RNG(name string) *rand.Rand {
	if r, ok := c.rngs[name]; ok {
		return r
	}
	// Derive a per-stream seed from the clock seed and the stream name
	// with a simple FNV-1a fold: stable across runs and Go versions.
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	r := rand.New(rand.NewSource(c.seed ^ int64(h)))
	c.rngs[name] = r
	return r
}

// Schedule runs fn at the given absolute virtual time. Scheduling in the
// past (before Now) is an error in the caller; the kernel panics to
// surface it immediately rather than silently reordering time.
func (c *Clock) Schedule(at time.Duration, fn func()) Event {
	if at < c.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, c.now))
	}
	var i int
	if n := len(c.free); n > 0 {
		i, c.free = c.free[n-1], c.free[:n-1]
	} else {
		i = len(c.recs)
		c.recs = append(c.recs, event{})
	}
	seq := c.seq
	c.seq++
	c.recs[i] = event{seq: seq, fn: fn}
	c.push(entry{at: at, seq: seq, rec: i})
	return Event{c: c, rec: i, at: at, seq: seq}
}

// push adds x to the queue, sifting it up from the bottom.
func (c *Clock) push(x entry) {
	q := append(c.queue, x)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !x.before(q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = x
	c.queue = q
}

// popRoot removes and returns the queue's earliest entry, sifting the
// last one down from the root into the hole it leaves.
func (c *Clock) popRoot() entry {
	q := c.queue
	root, n := q[0], len(q)-1
	x := q[n]
	q = q[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && q[r].before(q[l]) {
			l = r
		}
		if !q[l].before(x) {
			break
		}
		q[i] = q[l]
		i = l
	}
	if n > 0 {
		q[i] = x
	}
	c.queue = q
	return root
}

// After runs fn after delay d, like time.AfterFunc on virtual time.
func (c *Clock) After(d time.Duration, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return c.Schedule(c.now+d, fn)
}

// Halt stops the currently executing Run/RunUntil after the current
// event returns.
func (c *Clock) Halt() { c.halted = true }

// pop takes the earliest record off the queue and returns its time and
// callback (nil if the event was cancelled). The record is free again
// from here on, before the callback runs: the callback's own Schedule
// reuses it, so a chain of events that each schedule the next lives in
// one record.
func (c *Clock) pop() (at time.Duration, fn func()) {
	x := c.popRoot()
	e := &c.recs[x.rec]
	fn = e.fn
	e.fn = nil
	c.free = append(c.free, x.rec)
	return x.at, fn
}

// dropCancelled drains cancelled events off the head of the queue, so
// that the root, if there is one, is the next event to fire.
func (c *Clock) dropCancelled() {
	for len(c.queue) > 0 && c.recs[c.queue[0].rec].fn == nil {
		c.pop()
	}
}

// Step fires the single next event, advancing time to it. It reports
// whether an event fired.
func (c *Clock) Step() bool {
	for len(c.queue) > 0 {
		at, fn := c.pop()
		if fn == nil {
			continue
		}
		c.now = at
		fn()
		return true
	}
	return false
}

// Run fires events until the queue is empty or Halt is called.
func (c *Clock) Run() {
	c.halted = false
	for !c.halted && c.Step() {
	}
}

// RunUntil fires events with timestamps <= deadline, advancing the clock
// to exactly deadline afterwards even if no event landed on it.
func (c *Clock) RunUntil(deadline time.Duration) {
	c.halted = false
	for !c.halted {
		// A cancelled root says nothing about when the next live event is
		// due; Step would skip it and fire that one whatever its time.
		c.dropCancelled()
		if len(c.queue) == 0 || c.queue[0].at > deadline {
			break
		}
		c.Step()
	}
	if c.now < deadline {
		c.now = deadline
	}
}
