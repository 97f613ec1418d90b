package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// clockRef is the event queue Clock had before it kept its records: one
// heap-allocated event per Schedule, handed out by pointer and never
// reused, cancelled by a flag on the event itself. It is the oracle for
// the free list and the sequence-checked handle — a handle here can not
// go stale, because nothing is ever reused. RunUntil drains cancelled
// roots before it looks at the deadline, as Clock's does (see
// TestRunUntilStopsAtDeadlineBehindCancelledRoot).
type clockRef struct {
	now    time.Duration
	seq    uint64
	queue  refQueue
	halted bool
}

type eventRef struct {
	at   time.Duration
	seq  uint64
	fn   func()
	dead bool
}

func (e *eventRef) At() time.Duration { return e.at }
func (e *eventRef) Cancel()           { e.dead = true }

type refQueue []*eventRef

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(*eventRef)) }
func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

func (c *clockRef) Now() time.Duration { return c.now }
func (c *clockRef) Pending() int       { return len(c.queue) }
func (c *clockRef) Halt()              { c.halted = true }

func (c *clockRef) Schedule(at time.Duration, fn func()) handle {
	if at < c.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, c.now))
	}
	e := &eventRef{at: at, seq: c.seq, fn: fn}
	c.seq++
	heap.Push(&c.queue, e)
	return e
}

func (c *clockRef) After(d time.Duration, fn func()) handle {
	if d < 0 {
		d = 0
	}
	return c.Schedule(c.now+d, fn)
}

func (c *clockRef) Step() bool {
	for len(c.queue) > 0 {
		e := heap.Pop(&c.queue).(*eventRef)
		if e.dead {
			continue
		}
		c.now = e.at
		e.fn()
		return true
	}
	return false
}

func (c *clockRef) Run() {
	c.halted = false
	for !c.halted && c.Step() {
	}
}

func (c *clockRef) RunUntil(deadline time.Duration) {
	c.halted = false
	for !c.halted {
		for len(c.queue) > 0 && c.queue[0].dead {
			heap.Pop(&c.queue)
		}
		if len(c.queue) == 0 || c.queue[0].at > deadline {
			break
		}
		c.Step()
	}
	if c.now < deadline {
		c.now = deadline
	}
}

// handle is what both clocks' Schedule and After return, as the model
// sees it.
type handle interface {
	At() time.Duration
	Cancel()
}

// clockModel is the part of Clock the model drives.
type clockModel interface {
	Now() time.Duration
	Pending() int
	Halt()
	Schedule(at time.Duration, fn func()) handle
	After(d time.Duration, fn func()) handle
	Step() bool
	Run()
	RunUntil(deadline time.Duration)
}

// kept adapts *Clock, whose handles are values and whose queue is
// unexported, to clockModel.
type kept struct{ *Clock }

func (k kept) Schedule(at time.Duration, fn func()) handle { return k.Clock.Schedule(at, fn) }
func (k kept) Pending() int                                { return len(k.queue) }
func (k kept) After(d time.Duration, fn func()) handle     { return k.Clock.After(d, fn) }

// play runs a byte-coded scenario on c and returns everything
// observable about it: each firing with its time, and Now and Pending
// after every top-level op. A fired callback reads its own actions off
// the same byte stream, so two clocks that fire in the same order see
// the same scenario and one that fires out of order diverges at once.
// Every handle ever returned stays in hs for the rest of the scenario:
// a cancel picks among pending, fired, already-cancelled and (on Clock)
// long-recycled events alike.
func play(c clockModel, ops []byte) []string {
	var (
		log []string
		hs  []handle
		pc  int
	)
	next := func() int {
		if pc >= len(ops) {
			return 0
		}
		b := ops[pc]
		pc++
		return int(b)
	}
	// Ties are the interesting case for ordering: delays come from a
	// range of eight.
	delay := func() time.Duration { return time.Duration(next()%8) * time.Millisecond }
	var callback func(id int) func()
	schedule := func(after bool) {
		id, d := len(hs), delay()
		if after {
			hs = append(hs, c.After(d-2*time.Millisecond, callback(id))) // negative delays clamp
		} else {
			hs = append(hs, c.Schedule(c.Now()+d, callback(id)))
		}
		if at := hs[id].At(); at < c.Now() {
			log = append(log, fmt.Sprintf("event %d reports At %v before now %v", id, at, c.Now()))
		}
	}
	cancel := func() {
		if len(hs) > 0 {
			hs[next()%len(hs)].Cancel()
		}
	}
	callback = func(id int) func() {
		return func() {
			log = append(log, fmt.Sprintf("fire %d at %v", id, c.Now()))
			if pc >= len(ops) {
				return // the scenario is over: let the queue drain
			}
			switch next() % 8 {
			case 0, 1: // a chain: the record just freed is the one reused
				schedule(false)
			case 2:
				schedule(true)
				schedule(true)
			case 3:
				cancel()
			case 4:
				hs[id].Cancel() // itself, while firing
			case 5:
				c.Halt()
			}
		}
	}
	for pc < len(ops) {
		switch op := next() % 16; op {
		case 0, 1, 2, 3:
			schedule(false)
		case 4, 5:
			schedule(true)
		case 6, 7, 8:
			cancel()
		case 9, 10:
			log = append(log, fmt.Sprintf("step %v", c.Step()))
		case 11, 12:
			c.RunUntil(c.Now() + delay())
		case 13:
			c.RunUntil(c.Now() - time.Millisecond) // a deadline already behind
		case 14:
			c.Run()
		case 15:
			c.Halt() // outside a run: the next run clears it
		}
		log = append(log, fmt.Sprintf("now %v pending %d", c.Now(), c.Pending()))
	}
	c.Run()
	return append(log, fmt.Sprintf("end %v pending %d", c.Now(), c.Pending()))
}

func checkClockMatchesRef(t *testing.T, ops []byte) {
	t.Helper()
	got, want := play(kept{NewClock(1)}, ops), play(&clockRef{}, ops)
	if !slices.Equal(got, want) {
		for i := range want {
			if i >= len(got) || got[i] != want[i] {
				t.Fatalf("ops %v: diverge at entry %d\n got %v\nwant %v", ops, i, got[max(0, i-3):min(len(got), i+1)], want[max(0, i-3):i+1])
			}
		}
		t.Fatalf("ops %v: %d extra entries: %v", ops, len(got)-len(want), got[len(want):])
	}
}

// TestClockMatchesReference: over seeded scenarios of schedule, after,
// cancel (of live, fired, cancelled and recycled events), scheduling
// and cancelling from inside callbacks, step, run, run-until and halt,
// the clock that keeps its records fires the same events at the same
// times and reports the same Now and Pending after every op as the one
// that allocates an event per call.
func TestClockMatchesReference(t *testing.T) {
	n := 10_000
	if testing.Short() {
		n = 1_000
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < n; i++ {
		ops := make([]byte, 1+rng.Intn(200))
		rng.Read(ops)
		checkClockMatchesRef(t, ops)
	}
}

func FuzzClockMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 6, 0, 9})                     // schedule, cancel it, step
	f.Add([]byte{0, 1, 0, 5, 6, 0, 11, 2})           // cancelled root ahead of a later event, run-until between them
	f.Add([]byte{0, 0, 0, 3, 9, 6, 0, 14})           // fire a chain link, cancel through the first handle, run
	f.Add([]byte{4, 7, 14, 5, 0, 2, 14, 15, 11, 7})  // halt from a callback, resume
	f.Add([]byte{0, 1, 9, 4, 0, 1, 6, 0, 9, 10, 14}) // cancel a fired event whose record another now uses
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			t.Skip()
		}
		checkClockMatchesRef(t, ops)
	})
}

// TestStaleHandleCannotCancelRecycledEvent is the rule the value handle
// exists for, stated directly: once an event has fired, its record
// belongs to whatever the clock schedules next, and the old handle must
// not reach it.
func TestStaleHandleCannotCancelRecycledEvent(t *testing.T) {
	c := NewClock(1)
	first := c.Schedule(time.Second, func() {})
	c.Run()
	fired := false
	second := c.Schedule(2*time.Second, func() { fired = true })
	if second.rec != first.rec {
		t.Fatalf("the clock did not reuse the fired event's record")
	}
	first.Cancel()
	first.Cancel()
	c.Run()
	if !fired {
		t.Fatal("a handle on a fired event cancelled the event that reused its record")
	}
	if first.At() != time.Second || second.At() != 2*time.Second {
		t.Fatalf("At = %v, %v after reuse, want 1s, 2s", first.At(), second.At())
	}
	var zero Event
	zero.Cancel() // refers to nothing
	if zero.At() != 0 {
		t.Fatalf("zero Event At = %v", zero.At())
	}
}
