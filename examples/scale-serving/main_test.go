package main

// Example runs the walkthrough as go run does. The Output block below is
// the gate for every number it prints: a change that moves one edits
// the block.
func Example() {
	main()
	// Output:
	// origin: 8-shard store
	//
	// 8 viewers, 4 workers:
	//   viewer  0 (seed 360): quality 2.96  stalls 0  fetched  16.5 MB
	//   viewer  1 (seed 361): quality 3.18  stalls 0  fetched  17.2 MB
	//   viewer  2 (seed 362): quality 3.16  stalls 0  fetched  16.6 MB
	//   viewer  3 (seed 363): quality 2.59  stalls 0  fetched  14.3 MB
	//   viewer  4 (seed 364): quality 3.05  stalls 1  fetched  18.4 MB
	//   viewer  5 (seed 365): quality 3.15  stalls 0  fetched  17.4 MB
	//   viewer  6 (seed 366): quality 3.11  stalls 0  fetched  18.3 MB
	//   viewer  7 (seed 367): quality 2.86  stalls 0  fetched  17.2 MB
	//
	// aggregate: quality 3.01, score 56.9
	// HTTP: 2557 fetches, 0 errors
	// store: 790 misses, 1767 repeats served from memory, 44.1 MB resident
}
