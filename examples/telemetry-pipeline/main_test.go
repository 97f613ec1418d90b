package main

// Example runs the walkthrough as go run does. The Output block below is
// the gate for every number it prints: a change that moves one edits
// the block.
func Example() {
	main()
	// Output:
	// uploaded 20 sessions, 2411 bps per viewer (paper budget: <5 Kbps)
	// heatmap: 20 sessions, 15 intervals, 4x6 grid
	// interval 7 tile probabilities (row-major):
	//  0.70 0.80 0.80 0.25 0.10 0.05
	//  0.70 0.95 0.95 0.35 0.05 0.05
	//  0.70 0.95 0.95 0.35 0.05 0.05
	//  0.15 0.35 0.35 0.15 0.00 0.00
	//
	// tiles with p≈0 are what §3.2 prunes from OOS fetching;
	// tiles with high p are prefetched even at long horizons.
	//
	// next viewer's plan at the crowd center: 9 FoV tiles + 12 crowd-pruned OOS tiles
}
