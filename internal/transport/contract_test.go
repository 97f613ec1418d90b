package transport_test

import (
	"testing"
	"time"

	"sperke/internal/netem"
	"sperke/internal/sim"
	"sperke/internal/transport"
	"sperke/internal/transport/transporttest"
)

// contractScenario mixes what the schedulers treat differently: FoV and
// OOS (best-effort on a lossy path), urgent and regular, deadlines
// generous, tight and already past, and requests nobody waits for.
func contractScenario() []transporttest.Submission {
	var subs []transporttest.Submission
	for i := 0; i < 60; i++ {
		s := transporttest.Submission{
			Bytes:    int64(20e3 + 7e3*float64(i%5)),
			Deadline: time.Minute,
		}
		if i%2 == 1 {
			s.Class = transport.ClassOOS
		}
		s.Urgent = i%7 == 3
		switch {
		case i%6 == 4:
			s.Canceled = true
		case i%9 == 5:
			s.Deadline = time.Duration(i) * 10 * time.Millisecond // tight: some are met, some not
		case i%11 == 7:
			s.Deadline = 0 // past at submission
		}
		subs = append(subs, s)
	}
	return subs
}

func TestOnDoneContractSinglePath(t *testing.T) {
	transporttest.CheckOnDoneContract(t, 4, contractScenario(), func(clock *sim.Clock) transport.Scheduler {
		return transport.NewSinglePath(clock, netem.NewPath(clock, "net", netem.Constant(8e6), 5*time.Millisecond, 0))
	})
}

// The lossy second path loses best-effort OOS transfers, so the
// scenario runs through Failover's retry (which keeps its count in the
// Request) as well as its two shed paths.
func TestOnDoneContractFailover(t *testing.T) {
	var f *transport.Failover
	transporttest.CheckOnDoneContract(t, 4, contractScenario(), func(clock *sim.Clock) transport.Scheduler {
		wifi := netem.NewPath(clock, "wifi", netem.Constant(8e6), 5*time.Millisecond, 0.3)
		lte := netem.NewPath(clock, "lte", netem.Constant(6e6), 20*time.Millisecond, 0.3)
		f = transport.NewFailover(clock, transport.BreakerConfig{FailureThreshold: 1000}, wifi, lte)
		f.MaxRetries = 1
		return f
	})
	st := f.TotalStats()
	if st.Retries == 0 || st.Failures <= st.Retries || st.Canceled == 0 || st.Expired == 0 {
		t.Fatalf("the scenario did not reach a retry, a final loss, a canceled and an expired shed: %+v", st)
	}
}

// TestSteadyStateFetchAllocs is a session's fetch loop with everything
// but the loop taken away: a submitter that owns its Request records and
// binds OnDone once, over SinglePath, a Path and the Clock. Each layer
// keeps what it makes — the scheduler its completion method value, the
// path its transfer record, the clock its event — so once warm a fetch
// allocates nothing.
func TestSteadyStateFetchAllocs(t *testing.T) {
	clock := sim.NewClock(1)
	s := transport.NewSinglePath(clock, netem.NewPath(clock, "net", netem.Constant(25e6), 20*time.Millisecond, 0))
	type record struct {
		req  transport.Request
		next *record
	}
	var free *record
	delivered := 0
	fetch := func(bytes int64) {
		r := free
		if r == nil {
			r = new(record)
			r.req.OnDone = func(netem.Delivery, bool) {
				delivered++
				r.next, free = free, r // first, as core.Session's fetch records do
			}
		} else {
			free = r.next
		}
		r.req = transport.Request{Bytes: bytes, Deadline: clock.Now() + time.Second, OnDone: r.req.OnDone}
		s.Submit(&r.req)
	}
	round := func() {
		for i := 0; i < 8; i++ { // a super chunk's worth: one in flight, seven queued
			fetch(int64(10e3 + 1e3*float64(i)))
		}
		clock.Run()
	}
	round()
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Fatalf("a round of 8 fetches allocates %.0f objects at steady state, want 0", n)
	}
	if delivered != 8*102 {
		t.Fatalf("delivered %d of %d fetches", delivered, 8*102)
	}
}
