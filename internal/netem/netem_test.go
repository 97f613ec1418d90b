package netem

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"sperke/internal/sim"
)

func TestConstantTraceRate(t *testing.T) {
	tr := Constant(5e6)
	if tr.RateAt(0) != 5e6 || tr.RateAt(time.Hour) != 5e6 {
		t.Fatal("constant trace not constant")
	}
}

func TestStepsValidation(t *testing.T) {
	if _, err := stepTrace(); err == nil {
		t.Fatal("empty trace accepted")
	}
	if _, err := stepTrace(Step{Start: time.Second, BPS: 1e6}); err == nil {
		t.Fatal("trace not starting at 0 accepted")
	}
	if _, err := stepTrace(Step{0, 1e6}, Step{0, 2e6}); err == nil {
		t.Fatal("non-increasing starts accepted")
	}
	if _, err := stepTrace(Step{0, -1}); err == nil {
		t.Fatal("negative rate accepted")
	}
}

func TestTraceRateAtSteps(t *testing.T) {
	tr := MustSteps(Step{0, 1e6}, Step{10 * time.Second, 2e6}, Step{20 * time.Second, 5e5})
	cases := []struct {
		at   time.Duration
		want float64
	}{
		{0, 1e6}, {5 * time.Second, 1e6}, {10 * time.Second, 2e6},
		{15 * time.Second, 2e6}, {25 * time.Second, 5e5}, {-time.Second, 1e6},
	}
	for _, c := range cases {
		if got := tr.RateAt(c.at); got != c.want {
			t.Errorf("RateAt(%v) = %v, want %v", c.at, got, c.want)
		}
	}
}

func TestFinishTimeConstant(t *testing.T) {
	tr := Constant(8e6) // 1 MB/s
	got := tr.finishTime(0, 2e6)
	if got != 2*time.Second {
		t.Fatalf("FinishTime = %v, want 2s", got)
	}
	// Starting later shifts linearly.
	got = tr.finishTime(3*time.Second, 1e6)
	if got != 4*time.Second {
		t.Fatalf("FinishTime from 3s = %v, want 4s", got)
	}
}

func TestFinishTimeAcrossSteps(t *testing.T) {
	// 1 MB/s for 1s (1 MB capacity), then 2 MB/s.
	tr := MustSteps(Step{0, 8e6}, Step{time.Second, 16e6})
	// 3 MB: 1 MB in the first second, 2 MB at 2 MB/s = 1 more second.
	got := tr.finishTime(0, 3e6)
	if got != 2*time.Second {
		t.Fatalf("FinishTime = %v, want 2s", got)
	}
}

func TestFinishTimeZeroRateSegment(t *testing.T) {
	// Outage from 1s to 2s.
	tr := MustSteps(Step{0, 8e6}, Step{time.Second, 0}, Step{2 * time.Second, 8e6})
	got := tr.finishTime(0, 2e6)
	if got != 3*time.Second {
		t.Fatalf("FinishTime with outage = %v, want 3s", got)
	}
}

func TestFinishTimeForeverZeroStalls(t *testing.T) {
	tr := MustSteps(Step{0, 8e6}, Step{time.Second, 0})
	got := tr.finishTime(0, 2e6)
	if got < time.Hour {
		t.Fatalf("FinishTime on dead link = %v, want effectively never", got)
	}
}

func TestFinishTimeZeroBytes(t *testing.T) {
	tr := Constant(1e6)
	if got := tr.finishTime(5*time.Second, 0); got != 5*time.Second {
		t.Fatalf("FinishTime(0 bytes) = %v, want 5s", got)
	}
}

func TestFinishTimeMonotoneInBytes(t *testing.T) {
	tr := MustSteps(Step{0, 3e6}, Step{2 * time.Second, 1e6}, Step{5 * time.Second, 6e6})
	f := func(a, b uint32) bool {
		x, y := int64(a%1e7), int64(b%1e7)
		if x > y {
			x, y = y, x
		}
		return tr.finishTime(0, x) <= tr.finishTime(0, y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPathDeliversAndAccountsBytes(t *testing.T) {
	clock := sim.NewClock(1)
	p := NewPath(clock, "wifi", Constant(8e6), 10*time.Millisecond, 0)
	var d Delivery
	p.Transfer(1e6, Reliable, func(x Delivery) { d = x })
	clock.Run()
	// 1 MB at 1 MB/s = 1s + 10ms latency.
	if d.Done != 1010*time.Millisecond {
		t.Fatalf("Done = %v, want 1.01s", d.Done)
	}
	if !d.OK {
		t.Fatal("reliable transfer not OK")
	}
	if p.BytesMoved() != 1e6 {
		t.Fatalf("BytesMoved = %d, want 1e6", p.BytesMoved())
	}
	if p.InFlight() != 0 {
		t.Fatalf("InFlight = %d after drain", p.InFlight())
	}
}

func TestPathFIFOSerialization(t *testing.T) {
	clock := sim.NewClock(1)
	p := NewPath(clock, "wifi", Constant(8e6), 0, 0)
	var first, second time.Duration
	p.Transfer(1e6, Reliable, func(d Delivery) { first = d.Done })
	p.Transfer(1e6, Reliable, func(d Delivery) { second = d.Done })
	clock.Run()
	if first != time.Second {
		t.Fatalf("first = %v, want 1s", first)
	}
	if second != 2*time.Second {
		t.Fatalf("second = %v, want 2s (queued behind first)", second)
	}
}

func TestPathThroughputSample(t *testing.T) {
	clock := sim.NewClock(1)
	p := NewPath(clock, "wifi", Constant(8e6), 0, 0)
	var d Delivery
	p.Transfer(1e6, Reliable, func(x Delivery) { d = x })
	clock.Run()
	if math.Abs(d.Throughput()-8e6) > 1 {
		t.Fatalf("Throughput = %v, want 8e6", d.Throughput())
	}
}

func TestPathLossSlowsReliable(t *testing.T) {
	clock := sim.NewClock(1)
	clean := NewPath(clock, "a", Constant(8e6), 0, 0)
	lossy := NewPath(clock, "b", Constant(8e6), 0, 0.1)
	var tClean, tLossy time.Duration
	clean.Transfer(1e6, Reliable, func(d Delivery) { tClean = d.Done })
	lossy.Transfer(1e6, Reliable, func(d Delivery) { tLossy = d.Done })
	clock.Run()
	if tLossy <= tClean {
		t.Fatalf("lossy reliable %v not slower than clean %v", tLossy, tClean)
	}
	if tLossy > 3*tClean {
		t.Fatalf("10%% loss inflated transfer %v vs %v beyond model bound", tLossy, tClean)
	}
}

func TestPathBestEffortDropsSome(t *testing.T) {
	clock := sim.NewClock(7)
	p := NewPath(clock, "lossy", Constant(1e9), 0, 0.05)
	dropped, delivered := 0, 0
	for i := 0; i < 200; i++ {
		p.Transfer(256<<10, BestEffort, func(d Delivery) {
			if d.OK {
				delivered++
			} else {
				dropped++
			}
		})
	}
	clock.Run()
	if dropped == 0 {
		t.Fatal("no best-effort transfers dropped at 5% loss")
	}
	if delivered == 0 {
		t.Fatal("all best-effort transfers dropped at 5% loss")
	}
}

func TestPathBestEffortNeverDropsOnCleanLink(t *testing.T) {
	clock := sim.NewClock(7)
	p := NewPath(clock, "clean", Constant(1e9), 0, 0)
	for i := 0; i < 50; i++ {
		p.Transfer(256<<10, BestEffort, func(d Delivery) {
			if !d.OK {
				t.Error("drop on loss-free path")
			}
		})
	}
	clock.Run()
}

func TestPathUnlimited(t *testing.T) {
	clock := sim.NewClock(1)
	p := NewPath(clock, "infinite", nil, 5*time.Millisecond, 0)
	var done time.Duration
	p.Transfer(1e9, Reliable, func(d Delivery) { done = d.Done })
	clock.Run()
	if done != 5*time.Millisecond {
		t.Fatalf("unlimited path done = %v, want latency only", done)
	}
}

func TestPathEstimateMatchesActual(t *testing.T) {
	clock := sim.NewClock(1)
	p := NewPath(clock, "wifi", Constant(8e6), 20*time.Millisecond, 0)
	est := p.EstimateTransferTime(1e6)
	var d Delivery
	p.Transfer(1e6, Reliable, func(x Delivery) { d = x })
	clock.Run()
	actual := d.Done - d.Start
	if diff := (est - actual).Abs(); diff > 5*time.Millisecond {
		t.Fatalf("estimate %v vs actual %v", est, actual)
	}
}

func TestPathInvalidLossPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("loss 1.0 accepted")
		}
	}()
	NewPath(sim.NewClock(1), "x", nil, 0, 1.0)
}

func TestEWMA(t *testing.T) {
	var e EWMA
	if e.Estimate() != 0 {
		t.Fatal("empty EWMA nonzero")
	}
	e.Add(10e6)
	if e.Estimate() != 10e6 {
		t.Fatal("first sample not adopted")
	}
	e.Add(0)
	if got := e.Estimate(); got != 6e6 {
		t.Fatalf("EWMA = %v, want 6e6 (alpha 0.4)", got)
	}
}

func TestHarmonicMeanDiscountsSpikes(t *testing.T) {
	var h HarmonicMean
	for _, s := range []float64{1e6, 1e6, 1e6, 1e6, 100e6} {
		h.Add(s)
	}
	// Arithmetic mean would be ~20.8e6; harmonic stays near 1e6.
	if got := h.Estimate(); got > 2e6 {
		t.Fatalf("harmonic mean %v inflated by spike", got)
	}
}

func TestHarmonicMeanWindowSlides(t *testing.T) {
	var h HarmonicMean
	for i := 0; i < 10; i++ {
		h.Add(1e6)
	}
	for i := 0; i < harmonicWindow; i++ {
		h.Add(4e6)
	}
	if got := h.Estimate(); math.Abs(got-4e6) > 1 {
		t.Fatalf("window did not slide: %v", got)
	}
}

func TestHarmonicMeanIgnoresNonPositive(t *testing.T) {
	var h HarmonicMean
	h.Add(-5)
	h.Add(0)
	if h.Estimate() != 0 {
		t.Fatal("non-positive samples recorded")
	}
}

func TestLTETraceBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := LTETrace(rng, 10e6, time.Second, time.Minute)
	for ts := time.Duration(0); ts < time.Minute; ts += 500 * time.Millisecond {
		r := tr.RateAt(ts)
		if r < 0.05*10e6 || r > 2.6*10e6 {
			t.Fatalf("LTE rate %v at %v outside bounds", r, ts)
		}
	}
}

func TestWiFiTraceMostlyStable(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tr := WiFiTrace(rng, 20e6, time.Second, time.Minute)
	stable := 0
	total := 0
	for ts := time.Duration(0); ts < time.Minute; ts += time.Second {
		total++
		if tr.RateAt(ts) > 0.8*20e6 {
			stable++
		}
	}
	if float64(stable)/float64(total) < 0.7 {
		t.Fatalf("WiFi trace stable only %d/%d intervals", stable, total)
	}
}

func TestTraceGeneratorsDeterministic(t *testing.T) {
	a := LTETrace(rand.New(rand.NewSource(9)), 5e6, time.Second, 30*time.Second)
	b := LTETrace(rand.New(rand.NewSource(9)), 5e6, time.Second, 30*time.Second)
	for ts := time.Duration(0); ts < 30*time.Second; ts += time.Second {
		if a.RateAt(ts) != b.RateAt(ts) {
			t.Fatal("same-seed traces differ")
		}
	}
}

func TestParseTrace(t *testing.T) {
	tr, err := ParseTrace("0:8M,10s:1.5M,1m:500k")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		at   time.Duration
		want float64
	}{
		{0, 8e6}, {5 * time.Second, 8e6}, {10 * time.Second, 1.5e6},
		{59 * time.Second, 1.5e6}, {2 * time.Minute, 500e3},
	}
	for _, c := range cases {
		if got := tr.RateAt(c.at); got != c.want {
			t.Errorf("RateAt(%v) = %v, want %v", c.at, got, c.want)
		}
	}
}

func TestParseTraceRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"", "nonsense", "0:8M,5s", "5s:1M", "0:-3M", "0:8M,3s:1M,2s:2M", "0:xM",
	} {
		if _, err := ParseTrace(bad); err == nil {
			t.Errorf("ParseTrace(%q) accepted", bad)
		}
	}
}

func TestPathZeroJitterDeterministicLatency(t *testing.T) {
	clock := sim.NewClock(9)
	p := NewPath(clock, "calm", Constant(1e9), 10*time.Millisecond, 0)
	for i := 0; i < 5; i++ {
		p.Transfer(1000, Reliable, func(d Delivery) {
			if got := d.Done - d.Service; got < 10*time.Millisecond || got > 11*time.Millisecond {
				t.Errorf("latency %v without jitter", got)
			}
		})
	}
	clock.Run()
}

// A sequential client starts its next transfer from the callback of the
// one that just arrived: the path hands the fired transfer's record to
// the new one, and each delivery still reports its own transfer.
func TestPathChainedTransfersReportTheirOwn(t *testing.T) {
	clock := sim.NewClock(1)
	p := NewPath(clock, "wifi", Constant(8e6), 10*time.Millisecond, 0)
	sizes := []int64{1e6, 2e6, 5e5, 3e6}
	var got []Delivery
	var next func()
	next = func() {
		if len(got) == len(sizes) {
			return
		}
		p.Transfer(sizes[len(got)], Reliable, func(d Delivery) {
			got = append(got, d)
			next()
		})
	}
	next()
	clock.Run()
	if len(got) != len(sizes) {
		t.Fatalf("%d deliveries, want %d", len(got), len(sizes))
	}
	var at time.Duration
	for i, d := range got {
		// 1 MB/s: service lasts bytes µs, then 10 ms of propagation; the
		// next transfer is submitted on arrival.
		want := Delivery{Start: at, Service: at, Done: at + time.Duration(sizes[i])*time.Microsecond + 10*time.Millisecond, Bytes: sizes[i], OK: true}
		if d != want {
			t.Fatalf("delivery %d = %+v, want %+v", i, d, want)
		}
		at = d.Done
	}
	if p.BytesMoved() != 1e6+2e6+5e5+3e6 || p.InFlight() != 0 {
		t.Fatalf("BytesMoved = %d, InFlight = %d after drain", p.BytesMoved(), p.InFlight())
	}
}

// Transfers in flight together keep separate records: each delivery
// reports its own transfer, the link serves them in order, and the
// books balance once the path drains.
func TestPathOverlappingTransfers(t *testing.T) {
	clock := sim.NewClock(1)
	p := NewPath(clock, "wifi", Constant(8e6), 0, 0)
	var done []int64
	var at []time.Duration
	note := func(d Delivery) { done, at = append(done, d.Bytes), append(at, d.Done) }
	p.Transfer(1e6, Reliable, note)
	p.Transfer(2e6, Reliable, note)
	if p.InFlight() != 2 {
		t.Fatalf("InFlight = %d with two transfers on their way, want 2", p.InFlight())
	}
	clock.Run()
	p.Transfer(3e6, Reliable, note)
	clock.Run()
	if len(done) != 3 || done[0] != 1e6 || done[1] != 2e6 || done[2] != 3e6 {
		t.Fatalf("delivered %v, want [1e6 2e6 3e6]", done)
	}
	// At 8 Mbit/s a megabyte is a second: the second transfer queues
	// behind the first, and the third starts on an idle link at 3 s.
	if at[0] != time.Second || at[1] != 3*time.Second || at[2] != 6*time.Second {
		t.Fatalf("arrivals at %v, want [1s 3s 6s]", at)
	}
	if p.InFlight() != 0 || p.BytesMoved() != 6e6 {
		t.Fatalf("InFlight = %d, BytesMoved = %d at the end, want 0, 6e6", p.InFlight(), p.BytesMoved())
	}
}

// One transfer after another costs nothing: the path reuses its record,
// the clock its event.
func TestPathSequentialTransferAllocs(t *testing.T) {
	clock := sim.NewClock(1)
	p := NewPath(clock, "wifi", Constant(8e6), 0, 0)
	done := func(Delivery) {}
	p.Transfer(1e3, Reliable, done)
	clock.Run()
	if n := testing.AllocsPerRun(200, func() {
		p.Transfer(1e3, Reliable, done)
		clock.Run()
	}); n != 0 {
		t.Fatalf("a sequential transfer allocates %.0f objects, want 0", n)
	}
}

// At steady state the window slides in place.
func TestHarmonicMeanSteadyStateAllocs(t *testing.T) {
	var h HarmonicMean
	ref := []float64{}
	for i := 1; i <= 50; i++ {
		bps := float64(i) * 1e6
		h.Add(bps)
		if ref = append(ref, bps); len(ref) > harmonicWindow {
			ref = ref[1:]
		}
		var inv float64
		for _, s := range ref {
			inv += 1 / s
		}
		if want := float64(len(ref)) / inv; h.Estimate() != want {
			t.Fatalf("after %d samples Estimate = %v, want %v", i, h.Estimate(), want)
		}
	}
	if n := testing.AllocsPerRun(10, func() {
		for i := 0; i < 100; i++ {
			h.Add(2e6)
		}
	}); n != 0 {
		t.Fatalf("100 Adds allocate %.0f objects at steady state", n)
	}
}
