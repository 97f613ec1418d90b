package main

// Example runs the walkthrough as go run does. The Output block below is
// the gate for every number it prints: a change that moves one edits
// the block.
func Example() {
	main()
	// Output:
	// rendezvous placement over 3 edges: map[edge-0:17 edge-1:17 edge-2:14]
	//
	//    t     reroutes  origin  alive(edge-1)  offload
	//     0s         0      48              1     0.0%
	//     2s         0       0              1    80.0%
	//     4s         0       0              1    88.9%
	//     6s        17      17              0    89.6%
	//     8s        85       0              0    92.0%
	//    10s       153       0              0    93.5%
	//    12s       170      17              1    93.2%
	//    14s       170       0              1    94.1%
	//    16s       170       0              1    94.8%
	//
	// after the kill/recover cycle:
	//   down transitions 1, up transitions 1
	//   edge-0: 616 hits, 25 misses
	//   edge-1: 357 hits, 34 misses
	//   edge-2: 529 hits, 23 misses
	//   1584 front-door requests, 82 origin fetches: the edge tier absorbed 94.8%
}
