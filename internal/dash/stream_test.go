package dash

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"testing"
	"time"

	"sperke/internal/media"
	"sperke/internal/obs"
	"sperke/internal/tiling"
)

// buildSource is an in-test ChunkSource backed by BuildChunkBody — the
// contract every real store implements (the sharded store's own
// equivalence is pinned in internal/serve, which can import dash).
type buildSource struct{ cat *Catalog }

func (b buildSource) Chunk(ctx context.Context, videoID string, quality, tile, index int, layer bool) ([]byte, error) {
	v, ok := b.cat.Get(videoID)
	if !ok {
		return nil, ErrUnavailable
	}
	return BuildChunkBody(v, quality, tile, index, layer)
}

// TestWriteChunkBodyMatchesBuilders holds the one synthesis chain to
// its reference — media.WriteSegment over the whole materialized
// media.SyntheticPayload for the address's spec: the streamed body and
// the built body are both byte-identical to it, with an exact length
// report, for base chunks and SVC layers.
func TestWriteChunkBodyMatchesBuilders(t *testing.T) {
	v := testVideo()
	for _, layer := range []bool{false, true} {
		h, seed, size, err := chunkSpec(v, 2, 5, 3, layer)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := media.WriteSegment(&want, h, media.SyntheticPayload(seed, int(size))); err != nil {
			t.Fatal(err)
		}
		var streamed bytes.Buffer
		if err := WriteChunkBody(&streamed, v, 2, 5, 3, layer); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(streamed.Bytes(), want.Bytes()) {
			t.Fatalf("layer=%v: streamed body differs from WriteSegment(SyntheticPayload)", layer)
		}
		built, err := BuildChunkBody(v, 2, 5, 3, layer)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(built, want.Bytes()) {
			t.Fatalf("layer=%v: built body differs from WriteSegment(SyntheticPayload)", layer)
		}
		if len(built) != cap(built) {
			t.Fatalf("layer=%v: built body has %d spare bytes, want an exact-size slice", layer, cap(built)-len(built))
		}
		n, err := ChunkBodyLen(v, 2, 5, 3, layer)
		if err != nil {
			t.Fatal(err)
		}
		if n != want.Len() {
			t.Fatalf("layer=%v: ChunkBodyLen = %d, body is %d bytes", layer, n, want.Len())
		}
	}

	// Error contract: invalid addresses fail the same way everywhere.
	if err := WriteChunkBody(io.Discard, v, 2, v.Grid.Tiles(), 3, false); err == nil {
		t.Fatal("out-of-range tile accepted by WriteChunkBody")
	}
	if _, err := ChunkBodyLen(v, 2, v.Grid.Tiles(), 3, false); err == nil {
		t.Fatal("out-of-range tile accepted by ChunkBodyLen")
	}
	if _, err := BuildChunkBody(v, 2, v.Grid.Tiles(), 3, false); err == nil {
		t.Fatal("out-of-range tile accepted by BuildChunkBody")
	}
}

// TestLayerSeedDistinctFromChunk is the layer seed-collision
// regression test: before the fix the SVC-layer seed at (q,tile,idx)
// equaled the full chunk's, so the layer payload was a byte-prefix of
// the chunk payload at the same address — indistinguishable bodies for
// CRC dedup and cache comparisons. The layer flag now reaches the
// seed.
func TestLayerSeedDistinctFromChunk(t *testing.T) {
	v := testVideo()
	full, err := BuildChunkBody(v, 2, 5, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	layer, err := BuildChunkBody(v, 2, 5, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	_, fullPayload, err := media.ReadSegment(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	_, layerPayload, err := media.ReadSegment(bytes.NewReader(layer))
	if err != nil {
		t.Fatal(err)
	}
	if len(layerPayload) >= len(fullPayload) {
		t.Fatalf("layer payload (%d) not smaller than chunk payload (%d)", len(layerPayload), len(fullPayload))
	}
	if bytes.Equal(layerPayload, fullPayload[:len(layerPayload)]) {
		t.Fatal("SVC layer payload is a byte-prefix of the full chunk at the same address")
	}
}

// TestChunkSeedsStartDistinct: over the whole address space of the
// benchmark-sized video — five minutes on the 4x6 grid at six
// qualities, 21,600 chunks and their SVC-layer twins — no two payloads
// open with the same 16 bytes. The generator is counter-based, every
// stream a window on one sequence, so seeds that landed on (or a word
// away from) each other would show here as bodies sharing their head.
func TestChunkSeedsStartDistinct(t *testing.T) {
	v := testVideo()
	v.Duration, v.Grid = 5*time.Minute, tiling.GridCellular
	heads := make(map[[16]byte]uint64, 2*v.Qualities()*v.Grid.Tiles()*v.NumChunks())
	for q := 0; q < v.Qualities(); q++ {
		for tile := 0; tile < v.Grid.Tiles(); tile++ {
			for idx := 0; idx < v.NumChunks(); idx++ {
				for _, layer := range []bool{false, true} {
					_, seed, _, err := chunkSpec(v, q, tile, idx, layer)
					if err != nil {
						t.Fatal(err)
					}
					head := [16]byte(media.SyntheticPayload(seed, 16))
					if other, dup := heads[head]; dup {
						t.Fatalf("seeds %#x and %#x open with the same 16 bytes", other, seed)
					}
					heads[head] = seed
				}
			}
		}
	}
	if len(heads) != 2*21600 {
		t.Fatalf("walked %d addresses, want %d", len(heads), 2*21600)
	}
}

// TestServerStreamedResponseMatchesStore: the store-less streaming
// path, the store-backed path and the builders all serve the same
// bytes, with Content-Length set up front.
func TestServerStreamedResponseMatchesStore(t *testing.T) {
	cat := NewCatalog()
	v := testVideo()
	if err := cat.Add(v); err != nil {
		t.Fatal(err)
	}
	want, err := BuildChunkBody(v, 2, 5, 3, false)
	if err != nil {
		t.Fatal(err)
	}

	fetch := func(h http.Handler, path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}

	storeless := NewServer(cat)
	rec := fetch(storeless, "/v/demo/c/2/5/3")
	if rec.Code != http.StatusOK {
		t.Fatalf("store-less status %d", rec.Code)
	}
	if got := rec.Header().Get("Content-Length"); got != "" {
		n, _ := ChunkBodyLen(v, 2, 5, 3, false)
		if got != itoa(n) {
			t.Fatalf("Content-Length = %s, want %d", got, n)
		}
	}
	if !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatal("store-less streamed body differs from BuildChunkBody")
	}

	stored := NewServer(cat, WithStore(buildSource{cat: cat}))
	rec2 := fetch(stored, "/v/demo/c/2/5/3")
	if !bytes.Equal(rec2.Body.Bytes(), want) {
		t.Fatal("store-backed body differs from BuildChunkBody")
	}

	// SVC layer through both paths too.
	wantLayer, err := BuildChunkBody(v, 2, 5, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := fetch(storeless, "/v/demo/c/2/5/3?layer=1").Body.Bytes(); !bytes.Equal(got, wantLayer) {
		t.Fatal("store-less layer body differs from BuildChunkBody")
	}
	if got := fetch(stored, "/v/demo/c/2/5/3?layer=1").Body.Bytes(); !bytes.Equal(got, wantLayer) {
		t.Fatal("store-backed layer body differs from BuildChunkBody")
	}
}

func itoa(n int) string {
	var buf [20]byte
	i := len(buf)
	for {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
		if n == 0 {
			break
		}
	}
	return string(buf[i:])
}

// cancelSource is a ChunkSource standing in for a store whose caller
// went away: it reports the context's own error.
type cancelSource struct{}

func (cancelSource) Chunk(ctx context.Context, videoID string, quality, tile, index int, layer bool) ([]byte, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestCanceledChunkRequestCountsAsCanceled is the canceled-metrics
// regression test: a chunk request abandoned by its client used to be
// recorded as a 200 (the countingWriter's default status), silently
// inflating the success rate. It must count under dash.server.canceled
// and not under errors.
func TestCanceledChunkRequestCountsAsCanceled(t *testing.T) {
	cat := NewCatalog()
	if err := cat.Add(testVideo()); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s := NewServer(cat, WithObs(reg), WithStore(cancelSource{}))

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("GET", "/v/demo/c/2/5/3", nil).WithContext(ctx)
	s.ServeHTTP(httptest.NewRecorder(), req)

	if got := reg.Counter("dash.server.canceled").Value(); got != 1 {
		t.Fatalf("canceled = %d, want 1", got)
	}
	if got := reg.Counter("dash.server.errors").Value(); got != 0 {
		t.Fatalf("errors = %d, want 0 for a client-side abort", got)
	}
	if got := reg.Counter("dash.server.requests").Value(); got != 1 {
		t.Fatalf("requests = %d, want 1", got)
	}
}

// TestServerInstrumentsExistAtConstruction: an operator who scrapes
// /metrics before the first viewer arrives must already see every
// dash.server.* instrument at zero, not an empty registry.
func TestServerInstrumentsExistAtConstruction(t *testing.T) {
	reg := obs.NewRegistry()
	NewServer(NewCatalog(), WithObs(reg))
	wantCounters := map[string]int64{
		"dash.server.bytes_tx": 0, "dash.server.canceled": 0, "dash.server.chunk_requests": 0,
		"dash.server.errors": 0, "dash.server.list_requests": 0, "dash.server.mpd_requests": 0,
		"dash.server.requests": 0, "dash.server.unrouted": 0,
	}
	snap := reg.Snapshot()
	if !reflect.DeepEqual(snap.Counters, wantCounters) {
		t.Fatalf("counters before any request = %v, want %v", snap.Counters, wantCounters)
	}
	if _, ok := snap.Histograms["dash.server.request_ms"]; !ok || len(snap.Histograms) != 1 {
		t.Fatalf("histograms before any request = %v, want [dash.server.request_ms]", snap.Histograms)
	}
}

// flushRecorder counts Flush calls behind the countingWriter wrapper.
type flushRecorder struct {
	httptest.ResponseRecorder
	flushes int
}

func (f *flushRecorder) Flush() { f.flushes++ }

// TestCountingWriterPassesThroughFlusher: the metrics wrapper must not
// hide http.Flusher from the streaming path — a mid-body Flush has to
// reach the real connection.
func TestCountingWriterPassesThroughFlusher(t *testing.T) {
	inner := &flushRecorder{ResponseRecorder: *httptest.NewRecorder()}
	cw := &countingWriter{ResponseWriter: inner, status: http.StatusOK}
	var w http.ResponseWriter = cw
	fl, ok := w.(http.Flusher)
	if !ok {
		t.Fatal("countingWriter does not implement http.Flusher")
	}
	fl.Flush()
	fl.Flush()
	if inner.flushes != 2 {
		t.Fatalf("flushes forwarded = %d, want 2", inner.flushes)
	}

	// Wrapping a non-flusher must not panic.
	cw2 := &countingWriter{ResponseWriter: nonFlusher{httptest.NewRecorder()}}
	cw2.Flush()
}

// nonFlusher hides the recorder's Flush method.
type nonFlusher struct{ http.ResponseWriter }

// readFromRecorder counts the ReadFrom calls that reach it.
type readFromRecorder struct {
	httptest.ResponseRecorder
	readFroms int
}

func (r *readFromRecorder) ReadFrom(src io.Reader) (int64, error) {
	r.readFroms++
	return r.Body.ReadFrom(src)
}

// TestCountingWriterReadFrom: a body handed to the metrics wrapper's
// ReadFrom reaches the wrapped writer's own ReadFrom — net/http's, which
// splices from a socket — or, for a writer without one, its Write; either
// way every byte counts toward dash.server.bytes_tx.
func TestCountingWriterReadFrom(t *testing.T) {
	body := bytes.Repeat([]byte("x"), 3*obs.MinBlockLen+1)
	withReadFrom := &readFromRecorder{ResponseRecorder: *httptest.NewRecorder()}
	without := httptest.NewRecorder()
	for _, w := range []http.ResponseWriter{withReadFrom, nonFlusher{without}} {
		cw := &countingWriter{ResponseWriter: w, status: http.StatusOK}
		n, err := cw.ReadFrom(io.LimitReader(bytes.NewReader(body), int64(len(body))))
		if err != nil || n != int64(len(body)) || cw.bytes != n {
			t.Fatalf("%T: ReadFrom moved %d bytes and counted %d, err %v; want %d", w, n, cw.bytes, err, len(body))
		}
	}
	if withReadFrom.readFroms != 1 || !bytes.Equal(withReadFrom.Body.Bytes(), body) {
		t.Fatalf("%d ReadFrom calls reached the writer with one, want 1 and the body", withReadFrom.readFroms)
	}
	if !bytes.Equal(without.Body.Bytes(), body) {
		t.Fatalf("the writer without ReadFrom got %d bytes of %d", without.Body.Len(), len(body))
	}
}

// discardWriter is a body sink with preallocated headers, so the
// allocation test below measures the handler, not the test harness.
type discardWriter struct {
	h http.Header
	n int64
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) WriteHeader(int)             {}
func (d *discardWriter) Write(p []byte) (int, error) { d.n += int64(len(p)); return len(p), nil }

// storelessGET is the writer-first serving path: one chunk GET through
// the store-less handler, which regenerates the body block by block
// straight into the ResponseWriter. TestStorelessChunkAllocBudget holds
// it to its budgets; BenchmarkColdServeThroughput times it.
func storelessGET(tb testing.TB) (get func(), w *discardWriter, bodyLen int) {
	cat := NewCatalog()
	v := testVideo()
	if err := cat.Add(v); err != nil {
		tb.Fatal(err)
	}
	s := NewServer(cat)
	req := httptest.NewRequest("GET", "/v/demo/c/2/5/3", nil)
	w = &discardWriter{h: make(http.Header, 4)}
	bodyLen, err := ChunkBodyLen(v, 2, 5, 3, false)
	if err != nil {
		tb.Fatal(err)
	}
	get = func() { s.ServeHTTP(w, req) }
	get() // warm the block pool
	return get, w, bodyLen
}

// TestStorelessChunkAllocBudget pins the zero-materialization
// acceptance bar: a store-less cold chunk response must never allocate
// a body-sized buffer — per-request allocation stays far under the
// ~109KB body, at two objects: the Content-Length value and its slice.
// Routing allocates none.
func TestStorelessChunkAllocBudget(t *testing.T) {
	get, w, bodyLen := storelessGET(t)

	const iters = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < iters; i++ {
		get()
	}
	runtime.ReadMemStats(&after)
	perOp := int64(after.TotalAlloc-before.TotalAlloc) / iters
	if perOp >= int64(bodyLen)/4 {
		t.Fatalf("store-less request allocates %d B/op — body-sized (body is %d B); streaming path must stay block-bounded", perOp, bodyLen)
	}
	if w.n == 0 {
		t.Fatal("no bytes served")
	}
	if obs.RaceEnabled {
		return // race-mode sync.Pool drops Puts at random: the block pool refills
	}
	if n := testing.AllocsPerRun(100, get); n > 2 {
		t.Fatalf("store-less request allocates %.0f objects, want at most 2 (the Content-Length header)", n)
	}
}

// TestStorelessHeadWritesNoBody: dispatch hands a HEAD to the GET
// handler, and net/http would discard whatever it wrote. The handler
// answers from the size model instead: the GET's headers, not one body
// byte through its writer, nothing body-sized allocated.
func TestStorelessHeadWritesNoBody(t *testing.T) {
	cat := NewCatalog()
	if err := cat.Add(testVideo()); err != nil {
		t.Fatal(err)
	}
	s := NewServer(cat)
	serve := func(method string) *discardWriter {
		w := &discardWriter{h: make(http.Header, 4)}
		s.ServeHTTP(w, httptest.NewRequest(method, "/v/demo/c/2/5/3", nil))
		return w
	}
	get, head := serve("GET"), serve("HEAD")
	if get.n == 0 || get.h.Get("Content-Length") != strconv.FormatInt(get.n, 10) {
		t.Fatalf("GET wrote %d bytes under Content-Length %q", get.n, get.h.Get("Content-Length"))
	}
	if !reflect.DeepEqual(head.h, get.h) {
		t.Fatalf("HEAD headers %v, GET headers %v", head.h, get.h)
	}
	if head.n != 0 {
		t.Fatalf("HEAD pushed %d body bytes through the handler's writer", head.n)
	}
	const iters = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < iters; i++ {
		serve("HEAD")
	}
	runtime.ReadMemStats(&after)
	if perOp := int64(after.TotalAlloc-before.TotalAlloc) / iters; perOp >= get.n/4 {
		t.Fatalf("HEAD allocates %d B/op against a %d B body", perOp, get.n)
	}
}

func BenchmarkColdServeThroughput(b *testing.B) {
	get, _, bodyLen := storelessGET(b)
	b.SetBytes(int64(bodyLen))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		get()
	}
}
