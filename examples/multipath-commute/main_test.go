package main

// Example runs the walkthrough as go run does. The Output block below is
// the gate for every number it prints: a change that moves one edits
// the block.
func Example() {
	main()
	// Output:
	// commute scenario: WiFi healthy for 60s, then degrades; LTE steady but lossy
	// scheduler               FoV met   urgent met  OOS delivered
	// wifi-only                31/60         0/12          30/60
	// lte-only                 60/60        12/12           2/60
	// mptcp-like               60/60         6/12          60/60
	// content-aware            60/60         9/12          57/60
	//
	// content-aware multipath keeps FoV chunks on the best path and duplicates
	// urgent ones across both (§3.3), so HMP corrections survive the WiFi collapse.
}
