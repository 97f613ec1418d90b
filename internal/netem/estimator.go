package netem

// The throughput estimators smooth observed per-transfer throughput
// samples, in bits/s, into the bandwidth prediction rate adaptation
// plans against (§3.1.2). Their zero values are ready to use; they are
// not safe for concurrent use, as the session loop that owns one is
// single-threaded.

// ewmaAlpha is EWMA's weight of the newest sample.
const ewmaAlpha = 0.4

// EWMA is an exponentially weighted moving average estimator, the
// classic DASH client smoother.
type EWMA struct {
	value float64
	seen  bool
}

// Add records one observed sample.
func (e *EWMA) Add(bps float64) {
	if !e.seen {
		e.value = bps
		e.seen = true
		return
	}
	e.value = ewmaAlpha*bps + (1-ewmaAlpha)*e.value
}

// Estimate returns the current prediction; zero when no samples have
// been recorded.
func (e *EWMA) Estimate() float64 {
	if !e.seen {
		return 0
	}
	return e.value
}

// harmonicWindow is how many samples HarmonicMean retains.
const harmonicWindow = 5

// HarmonicMean estimates over a sliding window with the harmonic mean,
// which discounts outlier spikes — the estimator FESTIVE-style VRA uses
// [29].
type HarmonicMean struct {
	samples []float64
}

// Add records one observed sample; a non-positive one is ignored.
func (h *HarmonicMean) Add(bps float64) {
	if bps <= 0 {
		return
	}
	h.samples = append(h.samples, bps)
	if n := len(h.samples); n > harmonicWindow {
		// Slide the window down in place: slicing the front off instead
		// would leave append a shrinking tail and a fresh array every few
		// samples.
		copy(h.samples, h.samples[n-harmonicWindow:])
		h.samples = h.samples[:harmonicWindow]
	}
}

// Estimate returns the window's harmonic mean; zero when no samples
// have been recorded.
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
