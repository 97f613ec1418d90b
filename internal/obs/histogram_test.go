package obs

import (
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// lowestTracked is the smallest sample the quantile bound covers.
var lowestTracked = math.Ldexp(1, minExp)

// nearestRank is the independent reference: sort everything and take
// the sample at rank ⌈q·n⌉ (at least 1, at most n).
func nearestRank(samples []float64, q float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := max(1, int(math.Ceil(q*float64(len(s)))))
	return s[min(rank, len(s))-1]
}

// allowedErr is how far a quantile may read from the reference sample
// want: nothing for zero, the range's lower edge under it, and
// quantileRelErr of it inside the tracked range.
func allowedErr(want float64) float64 {
	switch {
	case want == 0:
		return 0
	case want < lowestTracked:
		return lowestTracked
	}
	return quantileRelErr * want
}

// checkHistogram observes samples into a fresh histogram and holds every
// quantile, through quantile and Stat, to the bound against the
// reference; Count, Sum, Min and Max must be exact, and a single-valued
// histogram must read back exactly.
func checkHistogram(t testing.TB, samples []float64, extraQ ...float64) {
	t.Helper()
	h := newHistogram()
	var sum float64
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range samples {
		h.Observe(v)
		sum += v
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	st := h.Stat()
	if st.Count != int64(len(samples)) || st.Sum != sum || st.Min != lo || st.Max != hi {
		t.Fatalf("n=%d: count/sum/min/max = %d/%v/%v/%v, want %d/%v/%v/%v",
			len(samples), st.Count, st.Sum, st.Min, st.Max, len(samples), sum, lo, hi)
	}
	check := func(name string, q, got float64) {
		want := nearestRank(samples, q)
		if math.Abs(got-want) > allowedErr(want) || lo == hi && got != want {
			t.Fatalf("n=%d %s(%v) = %v, nearest-rank sample %v (allowed error %v)",
				len(samples), name, q, got, want, allowedErr(want))
		}
	}
	check("p50", 0.5, st.P50)
	check("p95", 0.95, st.P95)
	check("p99", 0.99, st.P99)
	for _, q := range append([]float64{0, 0.001, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1}, extraQ...) {
		check("quantile", q, h.quantile(q, h.count()))
	}
}

// TestHistogramQuantilesMatchReferenceSort holds the quantiles of
// uniform, exponential, log-normal and zero-heavy samples to the stated
// bound of the nearest-rank sample.
func TestHistogramQuantilesMatchReferenceSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dists := []struct {
		name string
		gen  func() float64
	}{
		{"uniform", func() float64 { return rng.Float64() * 1000 }},
		{"exponential", func() float64 { return rng.ExpFloat64() * 20 }},
		{"lognormal", func() float64 { return math.Exp(rng.NormFloat64()*2 + 1) }},
		{"zero-heavy", func() float64 {
			if rng.Intn(4) > 0 {
				return 0
			}
			return rng.Float64() * 50
		}},
	}
	for _, d := range dists {
		for _, n := range []int{1, 2, 10, 500, 5000} {
			samples := make([]float64, n)
			for i := range samples {
				samples[i] = d.gen()
			}
			t.Run(d.name, func(t *testing.T) { checkHistogram(t, samples) })
		}
	}
}

// TestHistogramCoversTheWholeRun: quantiles summarize every sample, not
// the most recent ones — a run's slow start stays in its distribution.
func TestHistogramCoversTheWholeRun(t *testing.T) {
	h := newHistogram()
	for i := 0; i < 3000; i++ {
		h.Observe(100)
	}
	for i := 0; i < 2048; i++ {
		h.Observe(1)
	}
	if got := h.quantile(0.5, h.count()); math.Abs(got-100) > quantileRelErr*100 {
		t.Fatalf("p50 = %v, want 100 within %v: the first 3,000 samples are the majority", got, quantileRelErr*100)
	}
	st := h.Stat()
	if st.Count != 5048 || st.Min != 1 || st.Max != 100 || st.P50 != h.quantile(0.5, h.count()) {
		t.Fatalf("whole-run stat %+v", st)
	}
}

// TestHistogramIgnoresNaN keeps poisoned samples out of the stats.
func TestHistogramIgnoresNaN(t *testing.T) {
	h := newHistogram()
	h.Observe(math.NaN())
	h.Observe(5)
	if st := h.Stat(); st.Count != 1 || st.Min != 5 || st.Max != 5 {
		t.Fatalf("NaN leaked into stats: %+v", st)
	}
}

// TestHistogramConcurrentSnapshots: writers Observe while a reader takes
// snapshots. Run under -race this is the lock-free histogram's
// thread-safety proof; every snapshot must be finite (encoding/json
// refuses NaN and ±Inf, so /metrics would answer 500), and the final
// Count and Sum exact.
func TestHistogramConcurrentSnapshots(t *testing.T) {
	const writers, perWriter = 8, 5000
	r := NewRegistry()
	h := r.Histogram("x_ms")
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h.Observe(float64(i % 1000))
			}
		}()
	}
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for snaps := 0; ; snaps++ {
			st := h.Stat()
			for _, v := range []float64{st.Sum, st.Mean, st.Min, st.Max, st.P50, st.P95, st.P99} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("snapshot %d not finite: %+v", snaps, st)
					return
				}
			}
			if err := r.WriteJSON(io.Discard); err != nil {
				t.Errorf("WriteJSON mid-run: %v", err)
				return
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(done)
	<-readerDone

	var wantSum float64
	for i := 0; i < perWriter; i++ {
		wantSum += float64(i % 1000)
	}
	wantSum *= writers
	if st := h.Stat(); st.Count != writers*perWriter || st.Sum != wantSum {
		t.Fatalf("count/sum = %d/%v, want %d/%v", st.Count, st.Sum, writers*perWriter, wantSum)
	}
}

// TestHistogramObserveZeroAlloc pins the request-path cost: Observe runs
// on every served request and every client fetch.
func TestHistogramObserveZeroAlloc(t *testing.T) {
	h := newHistogram()
	if allocs := testing.AllocsPerRun(1000, func() { h.Observe(12.5) }); allocs != 0 {
		t.Fatalf("Observe: %v allocs/op, want 0", allocs)
	}
}

// FuzzHistogramQuantileBound decodes bytes into a sample set — tracked
// values across the whole range, zeros and repeats — and holds every
// quantile to the bound against the nearest-rank reference. The first
// two bytes also pick one extra q.
func FuzzHistogramQuantileBound(f *testing.F) {
	f.Add([]byte{0, 0, 2, 0x80, 10})
	f.Add([]byte{0x40, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 5, 0xff, 0x21})
	f.Add([]byte{0xff, 0xff, 7, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		q := float64(binary.BigEndian.Uint16(data)) / math.MaxUint16
		var samples []float64
		for b := data[2:]; len(b) >= 3; b = b[3:] {
			switch u := binary.BigEndian.Uint16(b[1:]); {
			case b[0]%4 == 0:
				samples = append(samples, 0)
			case b[0]%4 == 1 && len(samples) > 0:
				samples = append(samples, samples[len(samples)-1])
			default:
				octave := minExp + int(u>>8)%(maxExp-minExp)
				samples = append(samples, math.Ldexp(1+float64(u&0xff)/256, octave))
			}
		}
		if len(samples) == 0 {
			return
		}
		checkHistogram(t, samples, q)
	})
}
