package multipath

import (
	"testing"
	"time"

	"sperke/internal/netem"
	"sperke/internal/sim"
	"sperke/internal/transport"
)

// TestContentAwareZeroPathsFailsFast pins, over every scheduler that
// takes a path list, that an empty list is not a panic in path
// selection: a scheduler with no paths must not crash on Submit, and
// must fail the request through OnDone, exactly once, rather than drop
// it silently.
func TestContentAwareZeroPathsFailsFast(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(*sim.Clock) transport.Scheduler
	}{
		{"content-aware", func(c *sim.Clock) transport.Scheduler { return NewContentAware(c) }},
		{"mptcp", func(c *sim.Clock) transport.Scheduler { return NewMPTCPLike(c) }},
		{"failover", func(c *sim.Clock) transport.Scheduler { return transport.NewFailover(c, transport.BreakerConfig{}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.build(sim.NewClock(1))
			calls, okFlag := 0, true
			s.Submit(mkReq(1, transport.ClassFoV, false, 1e6, time.Second, func(d netem.Delivery, ok bool) {
				calls++
				okFlag = ok
				if d.Bytes != 1e6 {
					t.Errorf("failed delivery reports %d bytes, want the request size", d.Bytes)
				}
				if d.OK {
					t.Error("zero-path delivery marked OK")
				}
			}))
			if calls != 1 {
				t.Fatalf("OnDone fired %d times with zero paths, want 1", calls)
			}
			if okFlag {
				t.Fatal("zero-path submit reported success")
			}

			// Urgent and OOS classes go down different routing branches;
			// none may panic.
			s.Submit(mkReq(2, transport.ClassOOS, false, 1e5, time.Second, nil))
			s.Submit(mkReq(3, transport.ClassFoV, true, 1e5, time.Second, nil))
		})
	}
	if NewContentAware(sim.NewClock(1)).bestPath(1e6) != -1 {
		t.Fatal("bestPath with zero paths must return -1")
	}
}

// TestContentAwareStructLiteral: assembling the scheduler without the
// constructor (nil queues) must still work — ensure() sizes the state
// on first Submit.
func TestContentAwareStructLiteral(t *testing.T) {
	clock := sim.NewClock(1)
	wifi, lte := twoPaths(clock)
	c := &ContentAware{Paths: []*netem.Path{wifi, lte}, Clock: clock}

	var got netem.Delivery
	c.Submit(mkReq(1, transport.ClassFoV, false, 1e6, time.Minute, func(d netem.Delivery, ok bool) { got = d }))
	clock.Run()
	if got.Bytes != 1e6 || !got.OK {
		t.Fatalf("struct-literal scheduler failed delivery: %+v", got)
	}
}

// TestContentAwareOnePath re-pins the degenerate single-path routing
// alongside the new guard: both classes land on the only path.
func TestContentAwareOnePath(t *testing.T) {
	clock := sim.NewClock(1)
	only := netem.NewPath(clock, "only", netem.Constant(8e6), 10*time.Millisecond, 0)
	c := NewContentAware(clock, only)

	done := 0
	cb := func(d netem.Delivery, ok bool) {
		if !d.OK {
			t.Errorf("single-path delivery failed: %+v", d)
		}
		done++
	}
	c.Submit(mkReq(1, transport.ClassFoV, false, 5e5, time.Minute, cb))
	c.Submit(mkReq(2, transport.ClassOOS, false, 5e5, time.Minute, cb))
	clock.Run()
	if done != 2 {
		t.Fatalf("%d of 2 deliveries completed", done)
	}
	if only.BytesMoved() != 1e6 {
		t.Fatalf("path moved %d bytes, want 1e6", only.BytesMoved())
	}
}
