package netem

// ThroughputEstimator smooths observed per-transfer throughput samples
// into the bandwidth prediction rate adaptation plans against
// (§3.1.2). Implementations are not safe for concurrent use; the
// session loop owns them.
type ThroughputEstimator interface {
	// Add records one observed sample in bits/s.
	Add(bps float64)
	// Estimate returns the current prediction in bits/s; zero when no
	// samples have been recorded.
	Estimate() float64
}

// EWMA is an exponentially weighted moving average estimator, the
// classic DASH client smoother.
type EWMA struct {
	// Alpha is the weight of the newest sample in (0,1]; 0 defaults to
	// 0.3.
	Alpha float64

	value float64
	seen  bool
}

// Add implements ThroughputEstimator.
func (e *EWMA) Add(bps float64) {
	a := e.Alpha
	if a <= 0 || a > 1 {
		a = 0.3
	}
	if !e.seen {
		e.value = bps
		e.seen = true
		return
	}
	e.value = a*bps + (1-a)*e.value
}

// Estimate implements ThroughputEstimator.
func (e *EWMA) Estimate() float64 {
	if !e.seen {
		return 0
	}
	return e.value
}

// HarmonicMean estimates over a sliding window with the harmonic mean,
// which discounts outlier spikes — the estimator FESTIVE-style VRA uses
// [29].
type HarmonicMean struct {
	// Window is the number of samples retained; 0 defaults to 5.
	Window int

	samples []float64
}

// Add implements ThroughputEstimator.
func (h *HarmonicMean) Add(bps float64) {
	if bps <= 0 {
		return
	}
	w := h.Window
	if w <= 0 {
		w = 5
	}
	h.samples = append(h.samples, bps)
	if n := len(h.samples); n > w {
		// Slide the window down in place: slicing the front off instead
		// would leave append a shrinking tail and a fresh array every few
		// samples.
		copy(h.samples, h.samples[n-w:])
		h.samples = h.samples[:w]
	}
}

// Estimate implements ThroughputEstimator.
func (h *HarmonicMean) Estimate() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	var invSum float64
	for _, s := range h.samples {
		invSum += 1 / s
	}
	return float64(len(h.samples)) / invSum
}
