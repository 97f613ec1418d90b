package main

// Example runs the walkthrough as go run does. The Output block below is
// the gate for every number it prints: a change that moves one edits
// the block.
func Example() {
	main()
	// Output:
	// Sperke quickstart — FoV-guided vs FoV-agnostic @1080p, 20 Mbps
	// mode                fetched  FoV quality     stalls
	// fov-guided          28.7 MB         3.72          0
	// fov-agnostic        48.3 MB         4.00          0
	//
	// FoV-guided tiling saved 40% of the bytes (§2 cites 45% [16], 60–80% [37]).
}
