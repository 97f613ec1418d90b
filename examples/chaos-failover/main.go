// Chaos-failover: resilient chunk delivery through a scripted network
// fault. A session requests a chunk every 250 ms over WiFi+LTE while a
// fault plan blacks out WiFi mid-run; the circuit-breaking failover
// scheduler trips the dead path open, reroutes its queue to LTE, probes
// WiFi after a cooldown and moves back once it recovers. Compare the
// same session on naive single paths.
//
//	go run ./examples/chaos-failover
//	go run ./examples/chaos-failover -plan "outage:wifi:10s:8s,cliff:lte:12s:5s:800k"
package main

import (
	"flag"
	"fmt"
	"time"

	"sperke/internal/faults"
	"sperke/internal/netem"
	"sperke/internal/sim"
	"sperke/internal/transport"
)

var planSpec = flag.String("plan", "outage:wifi:10s:6s", "fault plan (kind:path:at:duration[:param], comma-separated)")

func main() {
	flag.Parse()

	plan, err := faults.Parse(*planSpec)
	if err != nil {
		fmt.Println("bad plan:", err)
		return
	}
	fmt.Printf("fault plan: %s\n", *planSpec)
	fmt.Printf("%-12s %12s %10s %10s %10s\n", "scheduler", "on time", "late", "failed", "rerouted")

	type outcome struct {
		onTime, late, lost, rerouted int
		cycles                       []transport.BreakerTransition
	}
	run := func(build func(c *sim.Clock, wifi, lte *netem.Path) transport.Scheduler) outcome {
		clock := sim.NewClock(7)
		wifi := netem.NewPath(clock, "wifi", netem.Constant(8e6), 10*time.Millisecond, 0)
		lte := netem.NewPath(clock, "lte", netem.Constant(4e6), 30*time.Millisecond, 0)
		if err := plan.Apply(clock, wifi, lte); err != nil {
			fmt.Println("apply:", err)
			return outcome{}
		}
		s := build(clock, wifi, lte)

		var o outcome
		for i := 0; i < 120; i++ {
			at := time.Duration(i) * 250 * time.Millisecond
			req := &transport.Request{
				Class: transport.ClassFoV, Bytes: 150_000, Deadline: at + time.Second,
				OnDone: func(d netem.Delivery, met bool) {
					switch {
					case met:
						o.onTime++
					case d.OK:
						o.late++
					default:
						o.lost++
					}
				},
			}
			clock.Schedule(at, func() { s.Submit(req) })
		}
		clock.Run()
		if f, ok := s.(*transport.Failover); ok {
			o.rerouted = f.TotalStats().Rerouted
			o.cycles = f.Breaker(0).Transitions()
		}
		return o
	}

	schedulers := []struct {
		name  string
		build func(c *sim.Clock, wifi, lte *netem.Path) transport.Scheduler
	}{
		{"wifi-only", func(c *sim.Clock, w, l *netem.Path) transport.Scheduler {
			return transport.NewSinglePath(c, w)
		}},
		{"lte-only", func(c *sim.Clock, w, l *netem.Path) transport.Scheduler {
			return transport.NewSinglePath(c, l)
		}},
		{"failover", func(c *sim.Clock, w, l *netem.Path) transport.Scheduler {
			return transport.NewFailover(c,
				transport.BreakerConfig{FailureThreshold: 1, Cooldown: 2 * time.Second}, w, l)
		}},
	}
	var cycles []transport.BreakerTransition
	for _, sc := range schedulers {
		o := run(sc.build)
		fmt.Printf("%-12s %9d/120 %10d %10d %10d\n", sc.name, o.onTime, o.late, o.lost, o.rerouted)
		if sc.name == "failover" {
			cycles = o.cycles
		}
	}
	fmt.Println("\nwifi breaker under failover:")
	for _, tr := range cycles {
		fmt.Printf("  %8v  %s -> %s\n", tr.At, tr.From, tr.To)
	}
	fmt.Println("\nthe breaker trips on the transfer the blackout caught in flight, sheds")
	fmt.Println("the stale backlog, reroutes the rest to LTE, and probes WiFi back to")
	fmt.Println("closed — most chunks stay on time instead of arriving uniformly late.")
}
