package transport

import (
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
	if n := testing.AllocsPerRun(200, func() {
		s.Submit(r)
		clock.Run()
	}); n > 1 {
		t.Fatalf("a dispatch allocates %.0f objects, want 1 (the path's event)", n)
	}
}
