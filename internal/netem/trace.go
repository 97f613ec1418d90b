// Package netem emulates the network paths 360° video streams traverse:
// time-varying bandwidth, propagation latency, and loss, over the
// deterministic sim clock. It also provides the bandwidth estimators
// rate adaptation consumes (§3.1.2 "network bandwidth estimation").
package netem

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"
)

// BandwidthTrace is a piecewise-constant bandwidth schedule: the rate in
// bits/s that a path offers as a function of time. Traces are immutable
// once built.
type BandwidthTrace struct {
	steps []traceStep // sorted by start; steps[0].start == 0
}

type traceStep struct {
	start time.Duration
	bps   float64
}

// Constant returns a trace with a fixed rate.
func Constant(bps float64) *BandwidthTrace {
	return &BandwidthTrace{steps: []traceStep{{0, bps}}}
}

// stepTrace builds a trace from (start, bps) pairs. The first pair must
// start at 0 and starts must be strictly increasing.
func stepTrace(pairs ...Step) (*BandwidthTrace, error) {
	if len(pairs) == 0 {
		return nil, fmt.Errorf("netem: empty trace")
	}
	if pairs[0].Start != 0 {
		return nil, fmt.Errorf("netem: trace must start at 0, got %v", pairs[0].Start)
	}
	tr := &BandwidthTrace{steps: make([]traceStep, len(pairs))}
	for i, p := range pairs {
		if i > 0 && p.Start <= pairs[i-1].Start {
			return nil, fmt.Errorf("netem: trace starts not increasing at %d", i)
		}
		if p.BPS < 0 {
			return nil, fmt.Errorf("netem: negative rate at %d", i)
		}
		tr.steps[i] = traceStep{p.Start, p.BPS}
	}
	return tr, nil
}

// Step is one (start time, rate) segment of a bandwidth trace.
type Step struct {
	Start time.Duration
	BPS   float64
}

// MustSteps is stepTrace that panics on error, for literals in tests and
// experiment setups.
func MustSteps(pairs ...Step) *BandwidthTrace {
	tr, err := stepTrace(pairs...)
	if err != nil {
		panic(err)
	}
	return tr
}

// RateAt returns the rate in bits/s at time t. Times before zero clamp
// to the first step.
func (tr *BandwidthTrace) RateAt(t time.Duration) float64 {
	i := sort.Search(len(tr.steps), func(i int) bool { return tr.steps[i].start > t })
	if i == 0 {
		return tr.steps[0].bps
	}
	return tr.steps[i-1].bps
}

// finishTime returns the virtual time at which a transfer of the given
// bytes completes if it starts at start and consumes the full trace
// rate. If the trace rate drops to zero forever, finishTime returns a
// very large time (the transfer stalls indefinitely).
func (tr *BandwidthTrace) finishTime(start time.Duration, bytes int64) time.Duration {
	const never = time.Duration(1<<62 - 1)
	if bytes <= 0 {
		return start
	}
	remaining := float64(bytes) * 8 // bits
	t := start
	i := sort.Search(len(tr.steps), func(i int) bool { return tr.steps[i].start > t })
	if i > 0 {
		i--
	}
	for {
		rate := tr.steps[i].bps
		var segEnd time.Duration
		if i+1 < len(tr.steps) {
			segEnd = tr.steps[i+1].start
		} else {
			// Final segment extends forever.
			if rate <= 0 {
				return never
			}
			return t + time.Duration(remaining/rate*float64(time.Second))
		}
		if rate > 0 {
			segSec := (segEnd - t).Seconds()
			capacity := rate * segSec
			if capacity >= remaining {
				return t + time.Duration(remaining/rate*float64(time.Second))
			}
			remaining -= capacity
		}
		t = segEnd
		i++
	}
}

// Clamp returns a new trace whose rate inside [from, to) is capped at
// bps — the primitive fault plans use to carve bandwidth cliffs
// (bps > 0) and blackout windows (bps == 0) into a schedule. A nil
// receiver is treated as an unlimited-rate base. Outside the window the
// trace is unchanged.
func (tr *BandwidthTrace) Clamp(from, to time.Duration, bps float64) *BandwidthTrace {
	if from < 0 {
		from = 0
	}
	if to <= from {
		return tr
	}
	rateAt := func(t time.Duration) float64 {
		if tr == nil {
			return math.Inf(1)
		}
		return tr.RateAt(t)
	}
	points := []time.Duration{0, from, to}
	if tr != nil {
		for _, st := range tr.steps {
			points = append(points, st.start)
		}
	}
	sort.Slice(points, func(i, j int) bool { return points[i] < points[j] })
	out := &BandwidthTrace{}
	for i, t := range points {
		if i > 0 && t == points[i-1] {
			continue
		}
		r := rateAt(t)
		if t >= from && t < to && r > bps {
			r = bps
		}
		if n := len(out.steps); n > 0 && out.steps[n-1].bps == r {
			continue
		}
		out.steps = append(out.steps, traceStep{t, r})
	}
	return out
}

// LTETrace synthesizes an LTE-like fluctuating trace: a bounded random
// walk around mean bps with occasional deep fades, one step per
// interval, for the given total duration. Deterministic for a given
// rng.
func LTETrace(rng *rand.Rand, mean float64, interval, total time.Duration) *BandwidthTrace {
	if interval <= 0 {
		interval = time.Second
	}
	steps := []traceStep{}
	cur := mean
	for t := time.Duration(0); t < total; t += interval {
		// Multiplicative random walk, clamped to [0.15, 2.5]× the mean.
		cur *= 1 + (rng.Float64()-0.5)*0.4
		if cur < 0.15*mean {
			cur = 0.15 * mean
		}
		if cur > 2.5*mean {
			cur = 2.5 * mean
		}
		rate := cur
		// ~5% of intervals are deep fades (handover, blockage).
		if rng.Float64() < 0.05 {
			rate = 0.1 * mean
		}
		steps = append(steps, traceStep{t, rate})
	}
	if len(steps) == 0 {
		steps = []traceStep{{0, mean}}
	}
	return &BandwidthTrace{steps: steps}
}

// WiFiTrace synthesizes a WiFi-like trace: mostly stable around mean
// with occasional congestion dips to ~40%.
func WiFiTrace(rng *rand.Rand, mean float64, interval, total time.Duration) *BandwidthTrace {
	if interval <= 0 {
		interval = time.Second
	}
	steps := []traceStep{}
	for t := time.Duration(0); t < total; t += interval {
		rate := mean * (0.9 + 0.2*rng.Float64())
		if rng.Float64() < 0.08 {
			rate = mean * 0.4
		}
		steps = append(steps, traceStep{t, rate})
	}
	if len(steps) == 0 {
		steps = []traceStep{{0, mean}}
	}
	return &BandwidthTrace{steps: steps}
}

// ParseTrace parses a compact textual bandwidth schedule:
//
//	"0:8M,10s:1.5M,1m:500k"
//
// Each comma-separated step is start:rate; starts use Go duration
// syntax ("0" allowed) and must increase from zero; rates accept k/M/G
// suffixes in bits per second. The format is what CLI flags and config
// files use to describe link behaviour, the role `tc` scripts play in
// the paper's testbed.
func ParseTrace(s string) (*BandwidthTrace, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("netem: empty trace spec")
	}
	var steps []Step
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		fields := strings.SplitN(part, ":", 2)
		if len(fields) != 2 {
			return nil, fmt.Errorf("netem: step %q is not start:rate", part)
		}
		var start time.Duration
		if fields[0] != "0" {
			var err error
			start, err = time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("netem: step %q: %w", part, err)
			}
		}
		bps, err := ParseRate(fields[1])
		if err != nil {
			return nil, fmt.Errorf("netem: step %q: %w", part, err)
		}
		steps = append(steps, Step{Start: start, BPS: bps})
	}
	return stepTrace(steps...)
}

// ParseRate parses "8M", "1.5M", "500k", "2G" or a bare number into
// bits per second — the rate grammar of trace specs and fault plans.
func ParseRate(s string) (float64, error) {
	s = strings.TrimSpace(s)
	mult := 1.0
	switch {
	case strings.HasSuffix(s, "G"):
		mult, s = 1e9, strings.TrimSuffix(s, "G")
	case strings.HasSuffix(s, "M"):
		mult, s = 1e6, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "k"):
		mult, s = 1e3, strings.TrimSuffix(s, "k")
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if v < 0 {
		return 0, fmt.Errorf("negative rate %q", s)
	}
	return v * mult, nil
}
