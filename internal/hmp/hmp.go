// Package hmp implements head-movement prediction, the prerequisite of
// FoV-guided streaming (§3.2). It provides the single-user predictors
// prior work established (last-value and linear extrapolation over a
// short window [16, 37]), the crowd-sourced heatmap predictor the paper
// proposes, and the "data fusion" predictor that joins per-user motion,
// crowd statistics, per-user speed bounds, and viewing context.
package hmp

import (
	"math"
	"time"

	"sperke/internal/sphere"
	"sperke/internal/trace"
)

// Prediction is a predicted orientation with an uncertainty radius: the
// expected angular error in degrees. Rate adaptation sizes OOS rings
// from the radius (§3.1.2: "the lower the accuracy, the more OOS chunks
// are needed").
type Prediction struct {
	View   sphere.Orientation
	Radius float64
}

// Predictor forecasts where the viewer will look. Implementations are
// fed sensor samples in time order via Observe and asked for the view at
// a future instant via Predict.
type Predictor interface {
	// Name identifies the predictor in experiment output.
	Name() string
	// Observe feeds one sensor reading; samples must arrive in
	// nondecreasing time order.
	Observe(s trace.Sample)
	// Predict forecasts the orientation at the (future) time at.
	Predict(at time.Duration) Prediction
}

// Static predicts the viewer keeps looking where they look now — the
// baseline every HMP study starts from.
type Static struct {
	last trace.Sample
	seen bool
}

// Name implements Predictor.
func (s *Static) Name() string { return "static" }

// Observe implements Predictor.
func (s *Static) Observe(x trace.Sample) {
	s.last = x
	s.seen = true
}

// Predict implements Predictor.
func (s *Static) Predict(at time.Duration) Prediction {
	if !s.seen {
		return Prediction{Radius: 180}
	}
	horizon := (at - s.last.At).Seconds()
	if horizon < 0 {
		horizon = 0
	}
	// Uncertainty grows with horizon: typical head speed ~20°/s.
	return Prediction{View: s.last.View, Radius: 5 + 20*horizon}
}

// fitWindow is the span of recent samples LinearRegression fits.
const fitWindow = 500 * time.Millisecond

// LinearRegression extrapolates yaw and pitch with a least-squares fit
// over a sliding window of recent samples — the short-horizon technique
// of [16, 37]. Yaw is unwrapped before fitting so the seam at ±180°
// doesn't corrupt the slope.
type LinearRegression struct {
	// Persistence is the motion-persistence constant τ in seconds: the
	// predictor extrapolates at most τ seconds of motion regardless of
	// horizon (heads pursue and stop). 0 defaults to 0.7.
	Persistence float64

	// ring holds the n samples of the last fitWindow, oldest first from
	// ring[head], wrapping at its end; its length is a power of two.
	ring    []fitSample
	head, n int
}

// fitSample is an observed sample with its yaw unwrapped against the
// sample before it.
type fitSample struct {
	trace.Sample
	yaw float64
}

// Name implements Predictor.
func (l *LinearRegression) Name() string { return "linear" }

// Observe implements Predictor.
func (l *LinearRegression) Observe(s trace.Sample) {
	// Unwrap the new yaw against the previous one.
	yaw := s.View.Yaw
	if l.n > 0 {
		prev := l.at(l.n - 1).yaw
		delta := sphere.NormalizeYaw(yaw - sphere.NormalizeYaw(prev))
		yaw = prev + delta
	}
	if l.n == len(l.ring) {
		ring := make([]fitSample, max(8, 2*l.n))
		for i := range l.n {
			ring[i] = *l.at(i)
		}
		l.ring, l.head = ring, 0
	}
	*l.at(l.n) = fitSample{s, yaw}
	l.n++
	// Evict samples older than the window by moving the head past them.
	for l.n > 0 && l.at(0).At < s.At-fitWindow {
		l.head = (l.head + 1) & (len(l.ring) - 1)
		l.n--
	}
}

// at returns the window's i-th sample, oldest first.
func (l *LinearRegression) at(i int) *fitSample {
	return &l.ring[(l.head+i)&(len(l.ring)-1)]
}

// Predict implements Predictor.
func (l *LinearRegression) Predict(at time.Duration) Prediction {
	n := l.n
	if n == 0 {
		return Prediction{Radius: 180}
	}
	last := *l.at(n - 1)
	horizon := (at - last.At).Seconds()
	if horizon < 0 {
		horizon = 0
	}
	if n == 1 {
		return Prediction{View: last.View, Radius: 5 + 20*horizon}
	}
	// Least squares on (t, yaw) and (t, pitch), t relative to the last
	// sample to keep numbers small.
	var sumT, sumT2, sumY, sumTY, sumP, sumTP float64
	for i := range n {
		s := l.at(i)
		t := (s.At - last.At).Seconds()
		sumT += t
		sumT2 += t * t
		sumY += s.yaw
		sumTY += t * s.yaw
		sumP += s.View.Pitch
		sumTP += t * s.View.Pitch
	}
	fn := float64(n)
	det := fn*sumT2 - sumT*sumT
	var yawSlope, yawIc, pitchSlope, pitchIc float64
	if math.Abs(det) < 1e-12 {
		yawIc, pitchIc = last.yaw, last.View.Pitch
	} else {
		yawSlope = (fn*sumTY - sumT*sumY) / det
		yawIc = (sumY - yawSlope*sumT) / fn
		pitchSlope = (fn*sumTP - sumT*sumP) / det
		pitchIc = (sumP - pitchSlope*sumT) / fn
	}
	// Cap extrapolation speed at a plausible human bound so one saccade
	// inside the window doesn't fling the prediction across the sphere.
	const maxSlope = 120 // degrees/second
	yawSlope = clamp(yawSlope, -maxSlope, maxSlope)
	pitchSlope = clamp(pitchSlope, -maxSlope, maxSlope)
	// Fixation dead-zone: micro-jitter during fixation produces small,
	// noisy slopes that only degrade the forecast. Extrapolate only when
	// the head is genuinely moving.
	const minSlope = 8 // degrees/second
	if math.Hypot(yawSlope, pitchSlope) < minSlope {
		yawSlope, pitchSlope = 0, 0
	}
	// Motion persistence is short: heads pursue a target and stop, so
	// constant-velocity extrapolation overshoots at long horizons.
	// Shrink the effective horizon with a persistence constant τ:
	// h' = τ(1 − e^(−h/τ)) extrapolates at most τ seconds of motion.
	tau := l.Persistence
	if tau <= 0 {
		tau = 0.7
	}
	eff := tau * (1 - math.Exp(-horizon/tau))
	view := sphere.Orientation{
		Yaw:   yawIc + yawSlope*eff,
		Pitch: pitchIc + pitchSlope*eff,
	}.Normalized()
	speed := math.Hypot(yawSlope, pitchSlope)
	return Prediction{View: view, Radius: 3 + (8+0.35*speed)*horizon}
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
