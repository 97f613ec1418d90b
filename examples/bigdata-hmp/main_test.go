package main

// Example runs the walkthrough as go run does. The Output block below is
// the gate for every number it prints: a change that moves one edits
// the block.
func Example() {
	main()
	// Output:
	// heatmap built from 25 sessions, 30 intervals
	// most-watched tiles at t=10s: [8 14 3] (p=1.00, 1.00, 0.96)
	//
	// held-out viewer, 4s prediction horizon:
	//   linear   mean err  37.9°, FoV hit rate 0.74
	//   crowd    mean err  42.1°, FoV hit rate 0.76
	//   fusion   mean err  38.3°, FoV hit rate 0.77
	//
	// session with crowd pruning:    28.0 MB fetched, FoV quality 3.72
	// session without crowd data:    30.5 MB fetched, FoV quality 3.78
	// crowd statistics trimmed 8% of the bytes at equal quality (§3.2).
}
