package hmp

import (
	"time"

	"sperke/internal/sphere"
	"sperke/internal/trace"
)

// Accuracy summarizes a predictor's replay performance at one horizon.
type Accuracy struct {
	Horizon time.Duration
	// MeanError is the mean angular error in degrees.
	MeanError float64
	// P90Error is the 90th-percentile angular error.
	P90Error float64
	// HitRate is the fraction of predictions whose error stayed within
	// half the FoV width — i.e. the true view center remained inside the
	// predicted FoV.
	HitRate float64
	// Samples is the number of prediction points evaluated.
	Samples int
}

// Evaluate replays a head trace through a predictor factory and measures
// accuracy at the given horizon: at each evaluation instant the
// predictor has observed all samples up to t and predicts t+horizon.
//
// newPred must return a fresh predictor; Evaluate owns feeding it.
func Evaluate(newPred func() Predictor, h *trace.HeadTrace, fov sphere.FoV, horizon time.Duration) Accuracy {
	p := newPred()
	acc := Accuracy{Horizon: horizon}
	var errs []float64
	const step = 100 * time.Millisecond

	next := 0
	dur := h.Duration()
	for t := 500 * time.Millisecond; t+horizon <= dur; t += step {
		// Feed all samples up to t.
		for next < len(h.Samples) && h.Samples[next].At <= t {
			p.Observe(h.Samples[next])
			next++
		}
		pred := p.Predict(t + horizon)
		actual := h.At(t + horizon)
		errs = append(errs, sphere.AngularDistance(pred.View, actual))
	}
	if len(errs) == 0 {
		return acc
	}
	var sum float64
	hits := 0
	half := fov.Width / 2
	for _, e := range errs {
		sum += e
		if e <= half {
			hits++
		}
	}
	acc.Samples = len(errs)
	acc.MeanError = sum / float64(len(errs))
	acc.HitRate = float64(hits) / float64(len(errs))
	// P90 without sorting the caller's data twice: copy and partial sort.
	sorted := append([]float64(nil), errs...)
	insertionSort(sorted)
	idx := int(0.9 * float64(len(sorted)-1))
	acc.P90Error = sorted[idx]
	return acc
}

func insertionSort(a []float64) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
