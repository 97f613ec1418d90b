package transport_test

import (
	"fmt"
	"time"

	"sperke/internal/faults"
	"sperke/internal/netem"
	"sperke/internal/sim"
	"sperke/internal/transport"
)

// ExampleNewFailover streams a chunk every 250 ms over WiFi and a
// slower LTE link while WiFi is blacked out from 2 s to 4 s. The
// transfer the blackout catches arrives late and opens WiFi's breaker;
// after the 1 s cooldown one probe closes it again.
func ExampleNewFailover() {
	clock := sim.NewClock(1)
	wifi := netem.NewPath(clock, "wifi", netem.Constant(8e6), 10*time.Millisecond, 0)
	lte := netem.NewPath(clock, "lte", netem.Constant(2e6), 30*time.Millisecond, 0)
	if err := faults.MustParse("outage:wifi:2s:2s").Apply(clock, wifi, lte); err != nil {
		panic(err)
	}
	f := transport.NewFailover(clock, transport.BreakerConfig{FailureThreshold: 1, Cooldown: time.Second}, wifi, lte)

	onTime := 0
	for i := 0; i < 48; i++ {
		at := time.Duration(i) * 250 * time.Millisecond
		req := &transport.Request{
			Class: transport.ClassFoV, Bytes: 100_000, Deadline: at + time.Second,
			OnDone: func(d netem.Delivery, met bool) {
				if met {
					onTime++
				}
			},
		}
		clock.Schedule(at, func() { f.Submit(req) })
	}
	clock.Run()

	fmt.Printf("%d/48 chunks on time\n", onTime)
	for i, name := range []string{"wifi", "lte"} {
		s := f.Stats(i)
		fmt.Printf("%-4s dispatched %2d, on time %2d, late %d, rerouted %d\n",
			name, s.Dispatched, s.Successes, s.DeadlineMisses, s.Rerouted)
	}
	for _, tr := range f.Breaker(0).Transitions() {
		fmt.Printf("wifi breaker at %v: %s -> %s\n", tr.At, tr.From, tr.To)
	}
	// Output:
	// 43/48 chunks on time
	// wifi dispatched 40, on time 39, late 1, rerouted 1
	// lte  dispatched  6, on time  4, late 2, rerouted 5
	// wifi breaker at 4.33s: closed -> open
	// wifi breaker at 5.33s: open -> half-open
	// wifi breaker at 5.61s: half-open -> closed
}
