package main

// Example runs the walkthrough as go run does. The Output block below is
// the gate for every number it prints: a change that moves one edits
// the block.
func Example() {
	main()
	// Output:
	// fault plan: outage:wifi:10s:6s
	// scheduler         on time       late     failed   rerouted
	// wifi-only           62/120         58          0          0
	// lte-only             9/120        111          0          0
	// failover            93/120          5         22         20
	//
	// wifi breaker under failover:
	//     16.16s  closed -> open
	//     18.16s  open -> half-open
	//     18.32s  half-open -> open
	//     20.32s  open -> half-open
	//     20.48s  half-open -> closed
	//
	// the breaker trips on the transfer the blackout caught in flight, sheds
	// the stale backlog, reroutes the rest to LTE, and probes WiFi back to
	// closed — most chunks stay on time instead of arriving uniformly late.
}
