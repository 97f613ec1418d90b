package transport

import (
	"context"
	"testing"
	"time"

	"sperke/internal/faults"
	"sperke/internal/netem"
	"sperke/internal/sim"
)

func failoverReq(bytes int64, deadline time.Duration, done *[]bool) *Request {
	return &Request{
		Class:    ClassFoV,
		Bytes:    bytes,
		Deadline: deadline,
		OnDone: func(d netem.Delivery, ok bool) {
			*done = append(*done, ok)
		},
	}
}

func TestFailoverPrefersFastestHealthyPath(t *testing.T) {
	clock := sim.NewClock(1)
	fast := netem.NewPath(clock, "fast", netem.Constant(16e6), 0, 0)
	slow := netem.NewPath(clock, "slow", netem.Constant(1e6), 0, 0)
	f := NewFailover(clock, BreakerConfig{}, fast, slow)
	var done []bool
	for i := 0; i < 3; i++ {
		f.Submit(failoverReq(1e5, time.Minute, &done))
	}
	clock.Run()
	if f.Stats(0).Dispatched == 0 {
		t.Fatal("fast path never used")
	}
	if f.Stats(1).Dispatched != 0 {
		t.Fatal("slow path used while the fast one was cheaper")
	}
	for i, ok := range done {
		if !ok {
			t.Fatalf("request %d failed", i)
		}
	}
}

func TestFailoverTripsAndReroutesQueuedRequests(t *testing.T) {
	clock := sim.NewClock(1)
	// wifi is the faster path, so a burst submitted before the outage all
	// queues there. The outage then catches the backlog: the in-service
	// transfer stalls past its deadline, the breaker trips, and the still
	// queued requests must move to lte instead of waiting out the window.
	wifi := netem.NewPath(clock, "wifi", netem.Constant(8e6), 0, 0)
	lte := netem.NewPath(clock, "lte", netem.Constant(4e6), 0, 0)
	if err := faults.MustParse("outage:wifi:2500ms:3500ms").Apply(clock, wifi); err != nil {
		t.Fatal(err)
	}
	f := NewFailover(clock, BreakerConfig{FailureThreshold: 1, Cooldown: 2 * time.Second}, wifi, lte)
	var done []bool
	for i := 0; i < 12; i++ {
		// Tight deadlines on the first three (the outage will break the
		// third); the rest are loose enough to still matter after failover.
		deadline := 30 * time.Second
		if i < 3 {
			deadline = 3 * time.Second
		}
		f.Submit(failoverReq(1e6, deadline, &done)) // 1s on wifi, 2s on lte
	}
	clock.RunUntil(time.Minute)
	if !opened(f.Breaker(0)) {
		t.Fatal("wifi breaker never opened across the outage")
	}
	if f.Stats(0).Rerouted == 0 {
		t.Fatal("no queued requests rerouted off the tripped path")
	}
	if f.Stats(1).Dispatched == 0 {
		t.Fatal("lte never received the rerouted work")
	}
	if len(done) != 12 {
		t.Fatalf("%d completions, want all 12 despite the outage", len(done))
	}
	if f.Stats(0).Successes == 0 {
		t.Fatal("pre-outage wifi deliveries should have met their deadlines")
	}
}

func TestFailoverDeadlineMissAccountingAcrossFaultPlan(t *testing.T) {
	clock := sim.NewClock(1)
	// A single path with a mid-run bandwidth cliff: requests submitted
	// during the cliff arrive late and must be counted as deadline misses,
	// not failures.
	p := netem.NewPath(clock, "lte", netem.Constant(8e6), 0, 0)
	if err := faults.MustParse("cliff:lte:2s:6s:100k").Apply(clock, p); err != nil {
		t.Fatal(err)
	}
	f := NewFailover(clock, BreakerConfig{FailureThreshold: 100}, p)
	var done []bool
	for i := 0; i < 8; i++ {
		at := time.Duration(i) * time.Second
		req := failoverReq(1e5, at+500*time.Millisecond, &done)
		clock.Schedule(at, func() { f.Submit(req) })
	}
	clock.Run()
	st := f.Stats(0)
	if st.DeadlineMisses == 0 {
		t.Fatal("no deadline misses recorded across the cliff")
	}
	if st.Successes == 0 {
		t.Fatal("no successes outside the cliff window")
	}
	if st.Failures != 0 {
		t.Fatalf("late reliable deliveries miscounted as failures: %+v", st)
	}
	if st.Successes+st.DeadlineMisses+st.Expired != len(done) {
		t.Fatalf("accounting does not cover completions: %+v vs %d done", st, len(done))
	}
}

func TestFailoverTotalOutageWakesUpAndRecovers(t *testing.T) {
	clock := sim.NewClock(1)
	// Every path dies, breakers trip, requests park. After the outage ends
	// and a cooldown passes, the armed wakeup must revive the queues.
	wifi := netem.NewPath(clock, "wifi", netem.Constant(8e6), 0, 0)
	lte := netem.NewPath(clock, "lte", netem.Constant(8e6), 0, 0)
	if err := faults.MustParse("outage:*:0:4s").Apply(clock, wifi, lte); err != nil {
		t.Fatal(err)
	}
	f := NewFailover(clock, BreakerConfig{FailureThreshold: 1, Cooldown: time.Second}, wifi, lte)
	var done []bool
	for i := 0; i < 6; i++ {
		// Best-effort requests with generous deadlines: the outage loses
		// them (tripping the breakers), yet the post-cooldown probes can
		// still succeed and re-close.
		f.Submit(&Request{
			Class: ClassOOS, Bytes: 1e5, Deadline: time.Minute,
			OnDone: func(d netem.Delivery, ok bool) { done = append(done, ok) },
		})
	}
	// A second wave after the cooldown gives the tripped breaker probe
	// traffic, so it can demonstrate the half-open → closed recovery.
	clock.Schedule(6*time.Second, func() {
		for i := 0; i < 2; i++ {
			f.Submit(&Request{
				Class: ClassOOS, Bytes: 1e5, Deadline: time.Minute,
				OnDone: func(d netem.Delivery, ok bool) { done = append(done, ok) },
			})
		}
	})
	clock.RunUntil(time.Minute)
	if f.Pending() != 0 {
		t.Fatalf("%d requests still stranded after the outage ended", f.Pending())
	}
	if len(done) != 8 {
		t.Fatalf("%d completions, want 8", len(done))
	}
	if !opened(f.Breaker(0)) && !opened(f.Breaker(1)) {
		t.Fatal("no breaker opened during a total outage")
	}
	reclosed := reclosed(f.Breaker(0)) || reclosed(f.Breaker(1))
	if !reclosed {
		t.Fatal("no breaker re-closed after recovery")
	}
}

func TestFailoverRetriesLostDeliveries(t *testing.T) {
	clock := sim.NewClock(3)
	// Heavy loss on a best-effort class: lost deliveries are retried up to
	// MaxRetries while the deadline stands.
	p := netem.NewPath(clock, "lossy", netem.Constant(8e6), 0, 0.9)
	f := NewFailover(clock, BreakerConfig{FailureThreshold: 1000}, p)
	f.MaxRetries = 5
	var done []bool
	req := &Request{
		Class: ClassOOS, Bytes: 1e5, Deadline: time.Minute,
		OnDone: func(d netem.Delivery, ok bool) { done = append(done, ok) },
	}
	f.Submit(req)
	clock.Run()
	st := f.Stats(0)
	if st.Failures == 0 {
		t.Fatal("0.9 loss produced no failures")
	}
	if st.Retries == 0 {
		t.Fatal("lost deliveries were not retried")
	}
	if st.Retries > 5 {
		t.Fatalf("%d retries exceed MaxRetries=5", st.Retries)
	}
	if len(done) != 1 {
		t.Fatalf("OnDone fired %d times, want exactly once", len(done))
	}
}

func TestFailoverNegativeMaxRetriesDisables(t *testing.T) {
	clock := sim.NewClock(3)
	// A best-effort transfer submitted during an outage is lost
	// deterministically; with retries disabled the failure must surface
	// directly.
	p := netem.NewPath(clock, "lossy", netem.Constant(8e6), 0, 0)
	p.AddOutage(0, time.Second)
	f := NewFailover(clock, BreakerConfig{FailureThreshold: 1000}, p)
	f.MaxRetries = -1
	var done []bool
	f.Submit(&Request{
		Class: ClassOOS, Bytes: 1e5, Deadline: time.Minute,
		OnDone: func(d netem.Delivery, ok bool) { done = append(done, ok) },
	})
	clock.Run()
	if f.Stats(0).Retries != 0 {
		t.Fatal("retries happened with MaxRetries < 0")
	}
	if len(done) != 1 || done[0] {
		t.Fatalf("want a single failed completion, got %v", done)
	}
}

// A shed request's OnDone may submit at once; that submission pumps the
// path, and the pump that did the shedding must notice the path is busy
// instead of dispatching a second transfer behind it.
func TestFailoverShedThatSubmitsKeepsOneInFlight(t *testing.T) {
	clock := sim.NewClock(1)
	path := netem.NewPath(clock, "net", netem.Constant(8e6), 0, 0)
	f := NewFailover(clock, BreakerConfig{}, path)
	ctx, cancel := context.WithCancel(context.Background())
	var done []bool
	f.Submit(failoverReq(1e5, time.Minute, &done)) // in flight
	shed := failoverReq(1e5, time.Minute, &done)
	shed.OnDone = func(netem.Delivery, bool) { f.Submit(failoverReq(1e5, time.Minute, &done)) }
	shed.Ctx = ctx
	f.Submit(shed)
	f.Submit(failoverReq(1e5, time.Minute, &done)) // queued behind it
	cancel()
	clock.Step() // the first delivery: sheds, which submits, then pumps
	if n := path.InFlight(); n != 1 {
		t.Fatalf("%d transfers in flight after a shed request's OnDone submitted, want 1", n)
	}
	clock.Run()
	if len(done) != 3 || f.TotalStats().Canceled != 1 {
		t.Fatalf("%d completions, %d canceled, want 3, 1", len(done), f.TotalStats().Canceled)
	}
}
