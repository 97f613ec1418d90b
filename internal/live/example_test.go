package live_test

import (
	"fmt"
	"time"

	"sperke/internal/live"
)

// ExampleMeasure reproduces one Table 2 cell: Facebook's
// unconstrained live E2E latency (the paper measures 9.2 s).
func ExampleMeasure() {
	r := live.Measure(42, live.Facebook, live.Opts{Duration: 2 * time.Minute})
	fmt.Printf("Facebook base E2E latency ≈ %.0f s\n", r.MeanLatency.Seconds())
	// Output:
	// Facebook base E2E latency ≈ 9 s
}
