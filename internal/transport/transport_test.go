package transport

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"sperke/internal/netem"
	"sperke/internal/sim"
	"sperke/internal/tiling"
)

func req(tile int, class Class, urgent bool, deadline time.Duration, bytes int64) *Request {
	return &Request{
		Chunk:    tiling.ChunkID{Tile: tiling.TileID(tile)},
		Bytes:    bytes,
		Deadline: deadline,
		Class:    class,
		Urgent:   urgent,
	}
}

func TestQueueTable1Ordering(t *testing.T) {
	var q Queue
	regOOS := req(1, ClassOOS, false, 10*time.Second, 1)
	regFoV := req(2, ClassFoV, false, 10*time.Second, 1)
	urgOOS := req(3, ClassOOS, true, 10*time.Second, 1)
	urgFoV := req(4, ClassFoV, true, 10*time.Second, 1)
	q.Push(regOOS)
	q.Push(regFoV)
	q.Push(urgOOS)
	q.Push(urgFoV)
	want := []*Request{urgFoV, urgOOS, regFoV, regOOS}
	for i, w := range want {
		if got := q.Pop(); got != w {
			t.Fatalf("pop %d = tile %d, want tile %d", i, got.Chunk.Tile, w.Chunk.Tile)
		}
	}
	if q.Pop() != nil {
		t.Fatal("empty queue popped non-nil")
	}
}

func TestQueueDeadlineTieBreak(t *testing.T) {
	var q Queue
	late := req(1, ClassFoV, false, 10*time.Second, 1)
	early := req(2, ClassFoV, false, 2*time.Second, 1)
	q.Push(late)
	q.Push(early)
	if got := q.Pop(); got != early {
		t.Fatal("earlier deadline did not win")
	}
}

func TestQueueFIFOAmongEquals(t *testing.T) {
	var q Queue
	a := req(1, ClassFoV, false, time.Second, 1)
	b := req(2, ClassFoV, false, time.Second, 1)
	q.Push(a)
	q.Push(b)
	if q.Pop() != a || q.Pop() != b {
		t.Fatal("equal-priority requests not FIFO")
	}
}

func TestSinglePathDeliversInPriorityOrder(t *testing.T) {
	clock := sim.NewClock(1)
	path := netem.NewPath(clock, "p", netem.Constant(8e6), 0, 0)
	s := NewSinglePath(clock, path)

	var order []tiling.TileID
	mk := func(tile int, class Class, urgent bool) *Request {
		r := req(tile, class, urgent, time.Minute, 1e6)
		r.OnDone = func(d netem.Delivery, met bool) {
			order = append(order, r.Chunk.Tile)
			if !met {
				t.Errorf("tile %d missed a one-minute deadline", tile)
			}
		}
		return r
	}
	// Submit low-priority first; the in-flight one (tile 1) cannot be
	// preempted but the rest must reorder.
	s.Submit(mk(1, ClassOOS, false))
	s.Submit(mk(2, ClassOOS, false))
	s.Submit(mk(3, ClassFoV, false))
	s.Submit(mk(4, ClassOOS, true))
	clock.Run()
	want := []tiling.TileID{1, 4, 3, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("delivery order %v, want %v", order, want)
		}
	}
	if len(s.q.h) != 0 {
		t.Fatalf("%d requests queued after drain", len(s.q.h))
	}
}

func TestSinglePathDeadlineReported(t *testing.T) {
	clock := sim.NewClock(1)
	path := netem.NewPath(clock, "p", netem.Constant(8e6), 0, 0)
	s := NewSinglePath(clock, path)
	var met, missed bool
	r1 := req(1, ClassFoV, false, 2*time.Second, 1e6) // takes 1s → met
	r1.OnDone = func(d netem.Delivery, ok bool) { met = ok }
	r2 := req(2, ClassFoV, false, 1500*time.Millisecond, 1e6) // finishes at 2s → missed
	r2.OnDone = func(d netem.Delivery, ok bool) { missed = !ok }
	s.Submit(r1)
	s.Submit(r2)
	clock.Run()
	if !met {
		t.Fatal("r1 deadline should be met")
	}
	if !missed {
		t.Fatal("r2 deadline should be missed")
	}
}

func TestClassString(t *testing.T) {
	if ClassFoV.String() != "fov" || ClassOOS.String() != "oos" {
		t.Fatal("bad class strings")
	}
}

func TestQueuePropertyPopOrder(t *testing.T) {
	// Property: popping the whole queue yields the Table 1 order —
	// urgent first, FoV before OOS, earlier deadlines first.
	f := func(raw []uint16) bool {
		var q Queue
		for i, r := range raw {
			q.Push(&Request{
				Chunk:    tiling.ChunkID{Tile: tiling.TileID(i)},
				Deadline: time.Duration(r%64) * time.Second,
				Class:    Class(int(r>>6) % 2),
				Urgent:   (r>>7)%2 == 0,
			})
		}
		var prev *Request
		for {
			cur := q.Pop()
			if cur == nil {
				return true
			}
			if prev != nil {
				if prev.less(cur) == false && cur.less(prev) {
					return false // strictly out of order
				}
			}
			prev = cur
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// queueRef is the oracle for Queue: an arrival-ordered list whose Pop
// takes the least request by less, the first-arrived among equals. Its
// order comes from the requests' Table 1 fields alone, not from the
// sequence numbers Queue stamps on them.
type queueRef []*Request

func (q *queueRef) Pop() *Request {
	best := -1
	for i, r := range *q {
		if best < 0 || table1Less(r, (*q)[best]) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	r := (*q)[best]
	*q = append((*q)[:best], (*q)[best+1:]...)
	return r
}

// table1Less is less with the sequence numbers taken out of it.
func table1Less(a, b *Request) bool {
	x, y := *a, *b
	x.seq, y.seq = 0, 0
	return x.less(&y)
}

// checkQueueMatchesRef plays a byte-coded run of pushes and pops on a
// Queue and on queueRef and fails at the first pop where they differ.
// A byte's low two bits pick the op: a push of a new request (0, 1), whose
// urgency, class and deadline (one of eight, so ties are common) come
// from the byte's other bits; a pop (2); or a push again of the request
// popped last (3), as a completion callback resubmits its struct.
func checkQueueMatchesRef(t *testing.T, ops []byte) {
	t.Helper()
	var (
		q    Queue
		ref  queueRef
		last *Request
		n    int
	)
	pop := func(step int) {
		got, want := q.Pop(), ref.Pop()
		if got != want {
			t.Fatalf("ops %v, step %d: Pop = %+v, reference %+v", ops, step, got, want)
		}
		if got != nil {
			last = got
		}
	}
	for i, b := range ops {
		switch b % 4 {
		case 0, 1:
			r := req(n, Class(b>>2&1), b>>3&1 == 1, time.Duration(b>>5)*time.Second, 1)
			n++
			q.Push(r)
			ref = append(ref, r)
		case 2:
			pop(i)
		case 3:
			if last != nil {
				q.Push(last)
				ref = append(ref, last)
				last = nil
			}
		}
	}
	for len(ref) > 0 || len(q.h) > 0 {
		pop(len(ops))
	}
}

// TestQueueMatchesReference: seeded runs of interleaved pushes and pops
// pop in the reference's order, not only a whole queue drained at once.
func TestQueueMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for i := 0; i < 2000; i++ {
		ops := make([]byte, 1+rng.Intn(120))
		rng.Read(ops)
		checkQueueMatchesRef(t, ops)
	}
}

func FuzzQueueMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 2, 8, 2, 2})           // two regular, pop one, an urgent overtakes the other
	f.Add([]byte{0, 4, 0, 4, 2, 3, 2, 2, 2})  // FoV and OOS ties, the popped FoV resubmitted behind its twin
	f.Add([]byte{224, 32, 0, 2, 96, 2, 2, 2}) // deadlines out of arrival order, popped between pushes
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			t.Skip()
		}
		checkQueueMatchesRef(t, ops)
	})
}

// A completion callback that submits the next request (what a session's
// planner does) sees the path idle: the new request starts at once and
// nothing is dispatched twice.
func TestSinglePathSubmitFromOnDone(t *testing.T) {
	clock := sim.NewClock(1)
	path := netem.NewPath(clock, "p", netem.Constant(8e6), 0, 0)
	s := NewSinglePath(clock, path)
	var order []tiling.TileID
	var done []time.Duration
	mk := func(tile int) *Request {
		r := req(tile, ClassFoV, false, time.Minute, 1e6)
		r.OnDone = func(d netem.Delivery, met bool) {
			order = append(order, r.Chunk.Tile)
			done = append(done, d.Done)
		}
		return r
	}
	first := mk(1)
	inner := first.OnDone
	first.OnDone = func(d netem.Delivery, met bool) {
		inner(d, met)
		s.Submit(mk(3)) // behind tile 2, which is already queued
	}
	s.Submit(first)
	s.Submit(mk(2))
	clock.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("delivery order %v, want [1 2 3]", order)
	}
	for i, at := range done {
		if want := time.Duration(i+1) * time.Second; at != want {
			t.Fatalf("request %d done at %v, want %v: one transfer at a time, back to back", i, at, want)
		}
	}
	if len(s.q.h) != 0 {
		t.Fatalf("%d requests queued after drain", len(s.q.h))
	}
}

// Dispatching a request costs the path's event and nothing else here:
// the completion is one method value for the scheduler's lifetime.
func TestSinglePathDispatchAllocs(t *testing.T) {
	clock := sim.NewClock(1)
	path := netem.NewPath(clock, "p", netem.Constant(8e6), 0, 0)
	s := NewSinglePath(clock, path)
	r := req(1, ClassFoV, false, time.Minute, 1e3)
	s.Submit(r)
	clock.Run()
	n := testing.AllocsPerRun(200, func() {
		s.Submit(r)
		clock.Run()
	})
	t.Logf("a dispatch allocates %.0f objects (budget 1)", n)
	if n > 1 {
		t.Fatalf("a dispatch allocates %.0f objects, want 1 (the path's event)", n)
	}
}
