package main

// Example runs the walkthrough as go run does. The Output block below is
// the gate for every number it prints: a change that moves one edits
// the block.
func Example() {
	main()
	// Output:
	// crowd center at t=15s: (yaw 115.9°, pitch -1.0°, roll 0.0°)
	//
	// uplink drops to 50% of the source rate — the broadcaster's options:
	// mode                    FoV quality  blanked views
	// fixed                          0.50             0%
	// quality-reduce                 0.62             0%
	// spatial-fallback               0.93             7%
	//
	// planned horizon: 180° centered at (yaw 115.9°, pitch -1.0°, roll 0.0°) (floor 160° keeps the stage visible)
	//
	// crowd-sourced HMP for the lagging viewer (6s horizon, moving performer):
	//   static hit rate 0.64, crowd hit rate 1.00, recovery of misses 1.00
}
