// Package transporttest holds the check of the transport.Request.OnDone
// contract that the tests of every package implementing
// transport.Scheduler run against their schedulers.
package transporttest

import (
	"context"
	"math"
	"testing"
	"time"

	"sperke/internal/netem"
	"sperke/internal/sim"
	"sperke/internal/tiling"
	"sperke/internal/transport"
)

// Submission is one request of a scenario.
type Submission struct {
	Bytes    int64
	Class    transport.Class
	Urgent   bool
	Deadline time.Duration // absolute sim time
	// Canceled submits the request under an already-canceled context, so
	// a scheduler that reads Request.Ctx sheds it.
	Canceled bool
}

type outcome struct {
	d   netem.Delivery
	met bool
}

// CheckOnDoneContract holds a scheduler to what a submitter that keeps
// its Request structs relies on: OnDone is called exactly once per
// submission and is the scheduler's last touch of the Request. The
// scenario runs twice on schedulers built by mk, each time as `lanes`
// chains in which a request's OnDone submits the scenario's next
// request at once. The first run gives every submission a fresh Request.
// In the second each chain has one Request for life: its OnDone
// overwrites every exported field with garbage (the context with a
// canceled one), refills the struct and submits it again. Both runs must call OnDone once per submission and
// report the same deliveries; a scheduler that reads a Request after
// completing it, or carries state in it from one submission to the
// next, sees the wrong request's values and diverges.
func CheckOnDoneContract(t *testing.T, lanes int, subs []Submission, mk func(*sim.Clock) transport.Scheduler) {
	t.Helper()
	fresh, recycled := play(t, lanes, subs, mk, false), play(t, lanes, subs, mk, true)
	for i := range subs {
		if fresh[i] != recycled[i] {
			t.Errorf("submission %d (%+v): recycled Request delivered %+v, fresh Request %+v", i, subs[i], recycled[i], fresh[i])
		}
	}
}

func play(t *testing.T, lanes int, subs []Submission, mk func(*sim.Clock) transport.Scheduler, recycle bool) []outcome {
	t.Helper()
	clock := sim.NewClock(1)
	s := mk(clock)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	out := make([]outcome, len(subs))
	calls := make([]int, len(subs))
	next := 0
	// submit sends the scenario's next request, if any is left, in r.
	var submit func(r *transport.Request)
	submit = func(r *transport.Request) {
		if next == len(subs) {
			return
		}
		i, sub := next, subs[next]
		next++
		// Field by field: what a scheduler keeps in the unexported ones is
		// its own to reset.
		r.Ctx = nil
		r.Chunk = tiling.ChunkID{Tile: tiling.TileID(i)}
		r.Bytes, r.Class, r.Urgent, r.Deadline, r.Probability = sub.Bytes, sub.Class, sub.Urgent, sub.Deadline, 1
		r.OnDone = func(d netem.Delivery, met bool) {
			calls[i]++
			out[i] = outcome{d, met}
			if !recycle {
				submit(new(transport.Request))
				return
			}
			r.Ctx = canceled
			r.Chunk = tiling.ChunkID{Quality: -1, Tile: -1, Start: -1}
			r.Bytes, r.Class, r.Urgent, r.Deadline, r.Probability = -1, -1, !r.Urgent, -1, math.NaN()
			r.OnDone = func(netem.Delivery, bool) {
				t.Errorf("submission %d: OnDone called again after the request completed", i)
			}
			submit(r)
		}
		if sub.Canceled {
			transport.SubmitContext(s, canceled, r)
		} else {
			s.Submit(r)
		}
	}
	for l := 0; l < lanes; l++ {
		submit(new(transport.Request))
	}
	clock.Run()
	for i, n := range calls {
		if n != 1 {
			t.Errorf("submission %d (%+v): OnDone called %d times (recycled Requests: %v)", i, subs[i], n, recycle)
		}
	}
	return out
}
