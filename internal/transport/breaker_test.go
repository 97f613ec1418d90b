package transport

import (
	"testing"
	"time"

	"sperke/internal/sim"
)

// opened reports whether b's transition log shows it tripping, and
// reclosed whether it shows a return to closed after a trip.
func opened(b *Breaker) bool {
	for _, tr := range b.Transitions() {
		if tr.To == BreakerOpen {
			return true
		}
	}
	return false
}

func reclosed(b *Breaker) bool {
	tripped := false
	for _, tr := range b.Transitions() {
		tripped = tripped || tr.To == BreakerOpen
		if tripped && tr.To == BreakerClosed {
			return true
		}
	}
	return false
}

func TestBreakerTripsAfterConsecutiveFailures(t *testing.T) {
	clock := sim.NewClock(1)
	b := NewBreaker(clock, BreakerConfig{FailureThreshold: 3})
	if b.State() != BreakerClosed {
		t.Fatal("new breaker not closed")
	}
	b.OnFailure()
	b.OnFailure()
	if b.State() != BreakerClosed {
		t.Fatal("tripped below threshold")
	}
	b.OnFailure()
	if b.State() != BreakerOpen {
		t.Fatal("did not trip at threshold")
	}
	if !opened(b) {
		t.Fatal("no open transition logged after trip")
	}
	if b.Allow() {
		t.Fatal("open breaker allowed a request")
	}
}

func TestBreakerSuccessResetsFailureStreak(t *testing.T) {
	clock := sim.NewClock(1)
	b := NewBreaker(clock, BreakerConfig{FailureThreshold: 3})
	b.OnFailure()
	b.OnFailure()
	b.OnSuccess()
	b.OnFailure()
	b.OnFailure()
	if b.State() != BreakerClosed {
		t.Fatal("non-consecutive failures tripped the breaker")
	}
}

func TestBreakerHalfOpenProbeCycle(t *testing.T) {
	clock := sim.NewClock(1)
	b := NewBreaker(clock, BreakerConfig{FailureThreshold: 1, Cooldown: 2 * time.Second})
	b.OnFailure()
	if b.State() != BreakerOpen {
		t.Fatal("not open")
	}
	if got := b.retryAt(); got != 2*time.Second {
		t.Fatalf("RetryAt = %v, want 2s", got)
	}
	clock.RunUntil(time.Second)
	if b.Allow() {
		t.Fatal("allowed before cooldown")
	}
	clock.RunUntil(2 * time.Second)
	if b.State() != breakerHalfOpen {
		t.Fatal("cooldown did not half-open")
	}
	if !b.Allow() {
		t.Fatal("half-open refused the first probe")
	}
	if b.Allow() {
		t.Fatal("half-open allowed a second concurrent probe")
	}
	b.OnSuccess()
	if b.State() != BreakerClosed {
		t.Fatal("probe success did not close")
	}
	if !reclosed(b) {
		t.Fatal("no re-close logged after open→half-open→closed")
	}
}

func TestBreakerProbeFailureReopens(t *testing.T) {
	clock := sim.NewClock(1)
	b := NewBreaker(clock, BreakerConfig{FailureThreshold: 1, Cooldown: time.Second})
	b.OnFailure()
	clock.RunUntil(time.Second)
	if !b.Allow() {
		t.Fatal("no probe allowed")
	}
	b.OnFailure()
	if b.State() != BreakerOpen {
		t.Fatal("probe failure did not reopen")
	}
	if got := b.retryAt(); got != 2*time.Second {
		t.Fatalf("RetryAt = %v, want a fresh full cooldown (2s)", got)
	}
}

func TestBreakerProbeSuccessesThreshold(t *testing.T) {
	clock := sim.NewClock(1)
	b := NewBreaker(clock, BreakerConfig{FailureThreshold: 1, Cooldown: time.Second, ProbeSuccesses: 2})
	b.OnFailure()
	clock.RunUntil(time.Second)
	b.Allow()
	b.OnSuccess()
	if b.State() != breakerHalfOpen {
		t.Fatal("closed after 1 of 2 required probe successes")
	}
	b.Allow()
	b.OnSuccess()
	if b.State() != BreakerClosed {
		t.Fatal("did not close after 2 probe successes")
	}
}

func TestBreakerTransitionsLog(t *testing.T) {
	clock := sim.NewClock(1)
	b := NewBreaker(clock, BreakerConfig{FailureThreshold: 1, Cooldown: time.Second})
	b.OnFailure()
	clock.RunUntil(time.Second)
	b.Allow()
	b.OnSuccess()
	trs := b.Transitions()
	want := []BreakerState{BreakerOpen, breakerHalfOpen, BreakerClosed}
	if len(trs) != len(want) {
		t.Fatalf("%d transitions, want %d: %+v", len(trs), len(want), trs)
	}
	for i, w := range want {
		if trs[i].To != w {
			t.Fatalf("transition %d to %v, want %v", i, trs[i].To, w)
		}
	}
	if trs[1].At != time.Second {
		t.Fatalf("half-open at %v, want 1s", trs[1].At)
	}
}

// TestBreakerTransitionLogIsBounded: a path that flaps for the life of a
// long-lived cluster — 10,000 trip/recover cycles, 30,000 state changes
// — leaves a log of its first maxTransitions entries and nothing after,
// and the breaker still reports the trip and the re-close.
func TestBreakerTransitionLogIsBounded(t *testing.T) {
	clock := sim.NewClock(1)
	b := NewBreaker(clock, BreakerConfig{FailureThreshold: 1, Cooldown: time.Second})
	for i := 0; i < 10_000; i++ {
		b.OnFailure() // closed → open
		clock.RunUntil(clock.Now() + time.Second)
		b.Allow()     // open → half-open
		b.OnSuccess() // half-open → closed
	}
	trs := b.Transitions()
	if len(trs) != maxTransitions {
		t.Fatalf("log holds %d transitions after 10,000 cycles, want the first %d", len(trs), maxTransitions)
	}
	for i, tr := range trs {
		if want := []BreakerState{BreakerOpen, breakerHalfOpen, BreakerClosed}[i%3]; tr.To != want {
			t.Fatalf("transition %d is to %v, want %v", i, tr.To, want)
		}
	}
	// Cycle c trips at c seconds and recovers a cooldown later.
	last := len(trs) - 1
	want := time.Duration(last/3) * time.Second
	if last%3 != 0 {
		want += time.Second
	}
	if trs[last].At != want {
		t.Fatalf("last kept transition %d is at %v, want %v: the log kept a later cycle", last, trs[last].At, want)
	}
}

func TestBreakerStateStrings(t *testing.T) {
	if BreakerClosed.String() != "closed" || BreakerOpen.String() != "open" ||
		breakerHalfOpen.String() != "half-open" {
		t.Fatal("bad state strings")
	}
}
