package obs

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
)

// TestRegistryConcurrency hammers one registry from many goroutines —
// lookups racing creations, recordings racing snapshots — and checks
// the totals. Run under -race this is the package's thread-safety
// proof.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const workers = 16
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("shared.counter").Inc()
				r.Counter(fmt.Sprintf("worker.%d", w%4)).Inc()
				r.Gauge("shared.gauge").Set(int64(i))
				r.Histogram("shared.hist").Observe(float64(i))
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()

	if got := r.Counter("shared.counter").Value(); got != workers*perWorker {
		t.Fatalf("shared counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Histogram("shared.hist").count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
	var perWorkerSum int64
	for i := 0; i < 4; i++ {
		perWorkerSum += r.Counter(fmt.Sprintf("worker.%d", i)).Value()
	}
	if perWorkerSum != workers*perWorker {
		t.Fatalf("per-worker counters sum to %d, want %d", perWorkerSum, workers*perWorker)
	}
}

// TestNilRegistryIsNoOp pins the disabled path: a nil registry hands
// out nil instruments and nothing panics or records.
func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	if c != nil {
		t.Fatal("nil registry returned a live counter")
	}
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter accumulated")
	}
	g := r.Gauge("x")
	g.Set(7)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge accumulated")
	}
	h := r.Histogram("x")
	h.Observe(1)
	if h.count() != 0 || h.Stat().P50 != 0 {
		t.Fatal("nil histogram accumulated")
	}
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
}

// TestInstrumentIdentity checks that the same name always yields the
// same instrument.
func TestInstrumentIdentity(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("counter identity broken")
	}
	if r.Gauge("a") != r.Gauge("a") {
		t.Fatal("gauge identity broken")
	}
	if r.Histogram("a") != r.Histogram("a") {
		t.Fatal("histogram identity broken")
	}
}

// TestMetricsHandlerJSON round-trips a snapshot through the HTTP
// handler the server mounts at /metrics.
func TestMetricsHandlerJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("dash.server.requests").Add(3)
	r.Gauge("transport.failover.queue_depth").Set(2)
	r.Histogram("live.e2e_ms").Observe(120)
	r.Histogram("live.e2e_ms").Observe(80)

	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	var snap Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("unmarshal /metrics: %v", err)
	}
	if snap.Counters["dash.server.requests"] != 3 {
		t.Fatalf("counter lost in JSON: %+v", snap.Counters)
	}
	if snap.Gauges["transport.failover.queue_depth"] != 2 {
		t.Fatalf("gauge lost in JSON: %+v", snap.Gauges)
	}
	h := snap.Histograms["live.e2e_ms"]
	if h.Count != 2 || h.Min != 80 || h.Max != 120 || h.Mean != 100 {
		t.Fatalf("histogram stat wrong: %+v", h)
	}
}

// TestPublishExpvarIdempotent ensures double publication does not
// panic (expvar.Publish panics on duplicates).
func TestPublishExpvarIdempotent(t *testing.T) {
	r := NewRegistry()
	r.PublishExpvar("obs-test")
	r.PublishExpvar("obs-test")
	var nilReg *Registry
	nilReg.PublishExpvar("obs-test-nil") // must not panic either
}
