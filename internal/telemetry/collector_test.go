package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"sperke/internal/hmp"
	"sperke/internal/sphere"
	"sperke/internal/tiling"
	"sperke/internal/trace"
)

func testCollector() *Collector {
	return NewCollector(tiling.GridCellular, sphere.DefaultFoV)
}

func postRecord(t *testing.T, srv *httptest.Server, rec *Record) *http.Response {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, rec); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/t/"+rec.VideoID, "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

func crowdRecords(t *testing.T, n int) []*Record {
	t.Helper()
	att := trace.GenerateAttention(rand.New(rand.NewSource(31)), 30*time.Second)
	pop := trace.NewPopulation(rand.New(rand.NewSource(32)), n)
	out := make([]*Record, n)
	for i, u := range pop.Users {
		h := trace.Generate(rand.New(rand.NewSource(int64(40+i))), u, att, 30*time.Second)
		out[i] = FromHeadTrace("vid-9", u.ID, u.Context, h)
	}
	return out
}

func TestCollectorIngestAndStats(t *testing.T) {
	c := testCollector()
	srv := httptest.NewServer(c)
	defer srv.Close()

	for _, rec := range crowdRecords(t, 5) {
		if resp := postRecord(t, srv, rec); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest status %d", resp.StatusCode)
		}
	}
	if c.sessions("vid-9") != 5 {
		t.Fatalf("Sessions = %d", c.sessions("vid-9"))
	}
	resp, err := http.Get(srv.URL + "/t/vid-9/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]int
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats["sessions"] != 5 || stats["users"] != 5 {
		t.Fatalf("stats %v", stats)
	}
}

func TestCollectorHeatmapEndpoint(t *testing.T) {
	c := testCollector()
	srv := httptest.NewServer(c)
	defer srv.Close()
	for _, rec := range crowdRecords(t, 8) {
		postRecord(t, srv, rec)
	}
	resp, err := http.Get(srv.URL + "/t/vid-9/heatmap?chunkms=2000")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var hm HeatmapResponse
	if err := json.NewDecoder(resp.Body).Decode(&hm); err != nil {
		t.Fatal(err)
	}
	if hm.Sessions != 8 || hm.Rows != 4 || hm.Cols != 6 {
		t.Fatalf("heatmap meta %+v", hm)
	}
	if hm.Intervals == 0 || len(hm.Prob) != hm.Intervals {
		t.Fatalf("heatmap intervals %d, rows %d", hm.Intervals, len(hm.Prob))
	}
	// Probabilities valid and someone looks somewhere each interval.
	for i, row := range hm.Prob {
		var max float64
		for _, p := range row {
			if p < 0 || p > 1 {
				t.Fatalf("probability %v out of range", p)
			}
			if p > max {
				max = p
			}
		}
		if max == 0 {
			t.Fatalf("interval %d entirely unwatched", i)
		}
	}
}

func TestCollectorHeatmapNoData(t *testing.T) {
	srv := httptest.NewServer(testCollector())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/t/ghost/heatmap")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d for unknown video", resp.StatusCode)
	}
}

// TestCollectorHeatmapChunkmsBounds: a heatmap interval runs from one
// sample period (20 ms) to an hour, the longest span a record covers.
// Below, an hour-long session at chunkms=1 costs 3.6 million intervals of
// every tile; above, the interval in nanoseconds overflows.
func TestCollectorHeatmapChunkmsBounds(t *testing.T) {
	c := testCollector()
	if err := c.ingest(&Record{VideoID: "v", UserID: "u", Samples: []trace.Sample{{}, {At: 20 * time.Millisecond}}}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c)
	defer srv.Close()
	for _, tc := range []struct {
		chunkms string
		want    int
	}{
		{"1", http.StatusBadRequest},
		{"19", http.StatusBadRequest},
		{"20", http.StatusOK},
		{"3600000", http.StatusOK},
		{"3600001", http.StatusBadRequest},
		{"9223372036854775807", http.StatusBadRequest},
	} {
		resp, err := http.Get(srv.URL + "/t/v/heatmap?chunkms=" + tc.chunkms)
		if err != nil {
			t.Fatalf("chunkms=%s: %v", tc.chunkms, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("chunkms=%s: status %d, want %d", tc.chunkms, resp.StatusCode, tc.want)
		}
	}
}

// capCollector stores n sessions of two samples spanning capIntervals
// intervals of capChunk: at n = capSessions, a heatmap of them at
// capChunk costs exactly maxHeatmapProbes viewport queries.
const (
	capChunk     = 200 * time.Millisecond
	capIntervals = 1 << 14 // 54.6 minutes: within a record's hour
	capSessions  = maxHeatmapProbes / (capIntervals * hmp.Probes)
)

func capCollector(t *testing.T, n int) *Collector {
	t.Helper()
	if capSessions*capIntervals*hmp.Probes != maxHeatmapProbes {
		t.Fatalf("%d sessions × %d intervals × %d probes miss the cap %d", capSessions, capIntervals, hmp.Probes, maxHeatmapProbes)
	}
	c := testCollector()
	for i := 0; i < n; i++ {
		rec := &Record{VideoID: "v", UserID: fmt.Sprint("u", i), Samples: []trace.Sample{{}, {At: capIntervals * capChunk}}}
		if err := c.ingest(rec); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestCollectorHeatmapAtProbeCap: a heatmap of exactly maxHeatmapProbes
// queries is admitted. Building it is seconds of CPU on the Go loop, so
// the test stops at the admission, which is all the cap decides.
func TestCollectorHeatmapAtProbeCap(t *testing.T) {
	c := capCollector(t, capSessions)
	sessions, span, err := c.heatmapInput("v", capChunk, 0)
	if err != nil || len(sessions) != capSessions || span != capIntervals*capChunk {
		t.Fatalf("heatmapInput at the cap: %d sessions over %v, %v; want %d over %v, admitted", len(sessions), span, err, capSessions, capIntervals*capChunk)
	}
}

// TestCollectorHeatmapOverProbeCap: one session more and the GET is a
// 400 naming the cap, answered before anything is built.
func TestCollectorHeatmapOverProbeCap(t *testing.T) {
	c := capCollector(t, capSessions+1)
	if _, _, err := c.heatmapInput("v", capChunk, 0); !errors.Is(err, errTooManyProbes) {
		t.Fatalf("heatmapInput over the cap: %v, want errTooManyProbes", err)
	}
	srv := httptest.NewServer(c)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/t/v/heatmap?chunkms=" + fmt.Sprint(capChunk.Milliseconds()))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(body, []byte(fmt.Sprint("cap ", maxHeatmapProbes))) {
		t.Fatalf("over the cap: status %d %q, want 400 naming the cap", resp.StatusCode, body)
	}
}

func TestCollectorRejectsBadUploads(t *testing.T) {
	srv := httptest.NewServer(testCollector())
	defer srv.Close()
	// Garbage body.
	resp, err := http.Post(srv.URL+"/t/vid-9", "application/octet-stream",
		bytes.NewReader([]byte("garbage")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage accepted: %d", resp.StatusCode)
	}
	// Path/record mismatch.
	rec := crowdRecords(t, 1)[0]
	var buf bytes.Buffer
	Encode(&buf, rec)
	resp, err = http.Post(srv.URL+"/t/other-video", "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mismatched video accepted: %d", resp.StatusCode)
	}
}

func TestCollectorBoundsSessions(t *testing.T) {
	c := testCollector()
	c.MaxSessionsPerVideo = 3
	for _, rec := range crowdRecords(t, 6) {
		if err := c.ingest(rec); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.sessions("vid-9"); got != 3 {
		t.Fatalf("Sessions = %d, want bounded 3", got)
	}
}

func TestCollectorHeatmapMatchesDirectBuild(t *testing.T) {
	c := testCollector()
	recs := crowdRecords(t, 6)
	for _, rec := range recs {
		if err := c.ingest(rec); err != nil {
			t.Fatal(err)
		}
	}
	heat, err := c.heatmap("vid-9", 2*time.Second, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// The collector's heatmap must reflect the quantized traces it
	// stored: spot-check that top tiles carry meaningful probability.
	top := heat.TopTiles(10*time.Second, 1)
	if len(top) == 0 || heat.Probability(10*time.Second, top[0]) < 0.3 {
		t.Fatalf("aggregated heatmap looks empty: top %v", top)
	}
}

func TestIngestValidation(t *testing.T) {
	c := testCollector()
	if err := c.ingest(nil); err == nil {
		t.Fatal("nil record accepted")
	}
	if err := c.ingest(&Record{VideoID: "x"}); err == nil {
		t.Fatal("empty record accepted")
	}
}

func TestCollectorConcurrentIngest(t *testing.T) {
	c := testCollector()
	recs := crowdRecords(t, 12)
	done := make(chan struct{}, len(recs)+2)
	for _, rec := range recs {
		rec := rec
		go func() {
			c.ingest(rec)
			done <- struct{}{}
		}()
	}
	// Concurrent readers while ingesting.
	for g := 0; g < 2; g++ {
		go func() {
			for i := 0; i < 10; i++ {
				c.sessions("vid-9")
				c.heatmap("vid-9", 2*time.Second, 30*time.Second)
			}
			done <- struct{}{}
		}()
	}
	for i := 0; i < len(recs)+2; i++ {
		<-done
	}
	if c.sessions("vid-9") != 12 {
		t.Fatalf("Sessions = %d after concurrent ingest", c.sessions("vid-9"))
	}
}
