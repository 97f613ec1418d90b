package obs

import (
	"math"
	"sync/atomic"
)

// The bucket layout: 16 linear sub-buckets per power of two over
// [2^minExp, 2^maxExp) ms, plus one bucket for values ≤ 0 and one each
// for the positive values under and over that range. A tracked value's
// sub-bucket is its float64 bits' biased exponent and top four mantissa
// bits, read off in one shift.
const (
	subBucketBits = 4
	minExp        = -10
	maxExp        = 24
	numBuckets    = 3 + (maxExp-minExp)<<subBucketBits
	// keyShift drops the mantissa bits below the sub-bucket ones.
	keyShift = 52 - subBucketBits
	// firstKey is the key of 2^minExp, the first tracked value.
	firstKey = (1023 + minExp) << subBucketBits
	// quantileRelErr bounds a quantile's error relative to the
	// nearest-rank sample it estimates: half a sub-bucket's width over
	// the smallest value in it.
	quantileRelErr = 1.0 / (2 << subBucketBits)
)

// Histogram records float64 observations (latencies in milliseconds by
// convention: name them *_ms) over the whole run. Count, Sum, Min and
// Max are exact. Quantiles come from fixed log-linear buckets — 16
// linear sub-buckets per power of two over [2⁻¹⁰, 2²⁴) ms, about 1 µs to
// 4.6 h — each read back as its midpoint clamped to [Min, Max]. For
// samples in that range every quantile is within quantileRelErr
// (2⁻⁵ = 3.125 %) of the nearest-rank sample; zeros and single-valued
// histograms read back exactly, smaller positive samples within 2⁻¹⁰ ms,
// and larger ones as Max.
//
// Every field is an atomic, so Observe takes no lock. Obtain one from
// Registry.Histogram: the zero value lacks its Min/Max initialisation.
// No-op on a nil receiver.
type Histogram struct {
	// min, max and sum hold float64 bits. Sum, written by every Observe,
	// sits past the buckets, off the cache line of the read-mostly
	// min and max.
	min, max atomic.Uint64
	buckets  [numBuckets]atomic.Int64
	sum      atomic.Uint64
}

func newHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.Float64bits(math.Inf(1)))
	h.max.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one sample. It counts the sample in its bucket last,
// so a reader that counts the buckets first finds every counted sample
// already in Min, Max and Sum.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	update(&h.min, v, func(cur, v float64) float64 { return min(cur, v) })
	update(&h.max, v, func(cur, v float64) float64 { return max(cur, v) })
	update(&h.sum, v, func(cur, v float64) float64 { return cur + v })
	h.buckets[bucketOf(v)].Add(1)
}

// update replaces the float64 held in a with f(current, v).
func update(a *atomic.Uint64, v float64, f func(cur, v float64) float64) {
	for {
		old := a.Load()
		next := math.Float64bits(f(math.Float64frombits(old), v))
		if next == old || a.CompareAndSwap(old, next) {
			return
		}
	}
}

func load(a *atomic.Uint64) float64 { return math.Float64frombits(a.Load()) }

// bucketOf maps v to its bucket: 0 for v ≤ 0, 1 under the tracked range,
// the last one over it.
func bucketOf(v float64) int {
	if v <= 0 {
		return 0
	}
	k := int(math.Float64bits(v)>>keyShift) - firstKey
	return 2 + min(max(k, -1), numBuckets-3)
}

// bucketValue is what bucket i reads back as before the clamp to
// [Min, Max]: 0, the midpoint of its sub-bucket, or +Inf (so the
// overflow bucket reads back as Max).
func bucketValue(i int) float64 {
	switch i {
	case 0:
		return 0
	case numBuckets - 1:
		return math.Inf(1)
	}
	edge := func(k int) float64 { return math.Float64frombits(uint64(firstKey+k) << keyShift) }
	return (edge(i-2) + edge(i-1)) / 2
}

// count returns the observation count, summed over the buckets.
func (h *Histogram) count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) by nearest rank — the
// sample at rank ⌈q·n⌉, at least 1 — within the bound of the type's
// doc. It walks the buckets to the one holding that rank, where n > 0
// was counted before the walk.
func (h *Histogram) quantile(q float64, n int64) float64 {
	lo, hi := load(&h.min), load(&h.max)
	rank := max(1, int64(math.Ceil(q*float64(n))))
	var seen int64
	for i := range h.buckets {
		if seen += h.buckets[i].Load(); seen >= rank {
			return min(max(bucketValue(i), lo), hi)
		}
	}
	return hi
}

// HistogramStat is a histogram snapshot for JSON export.
type HistogramStat struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Stat captures the histogram's statistics.
func (h *Histogram) Stat() HistogramStat {
	n := h.count()
	if n == 0 {
		return HistogramStat{}
	}
	st := HistogramStat{Count: n, Sum: load(&h.sum), Min: load(&h.min), Max: load(&h.max)}
	st.Mean = st.Sum / float64(n)
	st.P50, st.P95, st.P99 = h.quantile(0.5, n), h.quantile(0.95, n), h.quantile(0.99, n)
	return st
}
