package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"
	"time"

	"sperke/internal/dash"
	"sperke/internal/media"
	"sperke/internal/obs"
	"sperke/internal/tiling"
)

// TestWriterStoreSizeMismatchFails: a synthesizer whose stream does
// not match its size report fails the Get and caches nothing — a
// half-built body must never become the sealed truth.
func TestWriterStoreSizeMismatchFails(t *testing.T) {
	short := New(WithWriterSynth(WriterSynth{
		Size: func(k ChunkKey) (int, error) { return 100, nil },
		Write: func(w io.Writer, k ChunkKey) error {
			_, err := w.Write(make([]byte, 60))
			return err
		},
	}), WithShards(1))
	if _, err := short.Get(context.Background(), key(0)); err == nil {
		t.Fatal("under-writing synth accepted")
	}
	if short.Contains(key(0)) {
		t.Fatal("mismatched body cached")
	}

	long := New(WithWriterSynth(WriterSynth{
		Size: func(k ChunkKey) (int, error) { return 10, nil },
		Write: func(w io.Writer, k ChunkKey) error {
			_, err := w.Write(make([]byte, 24))
			return err
		},
	}), WithShards(1))
	if _, err := long.Get(context.Background(), key(0)); err == nil {
		t.Fatal("over-writing synth accepted")
	}

	boom := fmt.Errorf("boom")
	failing := New(WithWriterSynth(WriterSynth{
		Size:  func(k ChunkKey) (int, error) { return 0, boom },
		Write: func(w io.Writer, k ChunkKey) error { return nil },
	}), WithShards(1))
	if _, err := failing.Get(context.Background(), key(0)); err == nil {
		t.Fatal("size error not propagated")
	}
}

// TestCatalogStoreStreamedMatchesBuild pins the cache==stream==build
// acceptance bar end to end: the catalog store's streamed miss path
// produces exactly dash.BuildChunkBody's bytes, for base chunks and
// SVC layers, and the sealed bodies are exact-size.
func TestCatalogStoreStreamedMatchesBuild(t *testing.T) {
	v := &media.Video{
		ID:             "svc-demo",
		Duration:       12 * time.Second,
		ChunkDuration:  2 * time.Second,
		Grid:           tiling.GridPrototype,
		ProjectionName: "equirectangular",
		Ladder:         media.DefaultLadder,
		Encoding:       media.EncodingSVC,
	}
	cat := dash.NewCatalog()
	if err := cat.Add(v); err != nil {
		t.Fatal(err)
	}
	st := NewCatalogStore(cat, StoreConfig{Shards: 2})
	for _, layer := range []bool{false, true} {
		want, err := dash.BuildChunkBody(v, 2, 5, 3, layer)
		if err != nil {
			t.Fatal(err)
		}
		got, err := st.Get(context.Background(), ChunkKey{Video: v.ID, Quality: 2, Tile: 5, Index: 3, Layer: layer})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("layer=%v: cached body differs from BuildChunkBody", layer)
		}
		if len(got) != cap(got) {
			t.Fatalf("layer=%v: cached body not sealed", layer)
		}
	}
	// A hit serves the resident sealed body.
	if !st.Contains(ChunkKey{Video: v.ID, Quality: 2, Tile: 5, Index: 3}) {
		t.Fatal("chunk not resident after miss")
	}
}

// TestWriterStoreLendsTheBody: the writer a miss hands its synthesizer
// lends out the unsealed body — AvailableBuffer, with room for exactly
// Size bytes — so media.WriteSyntheticSegment builds the chunk there in
// one pass, and a Write of the lent room seals it without a copy made
// elsewhere.
func TestWriterStoreLendsTheBody(t *testing.T) {
	const size = 200
	st := New(WithWriterSynth(WriterSynth{
		Size: func(ChunkKey) (int, error) { return size, nil },
		Write: func(w io.Writer, k ChunkKey) error {
			ab, ok := w.(interface{ AvailableBuffer() []byte })
			if !ok {
				return fmt.Errorf("the miss writer lends no buffer")
			}
			room := ab.AvailableBuffer()
			if len(room) != 0 || cap(room) != size {
				return fmt.Errorf("lent len %d cap %d, want 0 and %d", len(room), cap(room), size)
			}
			room = room[:size]
			for i := range room {
				room[i] = byte(i)
			}
			_, err := w.Write(room)
			return err
		},
	}), WithShards(1))
	body, err := st.Get(context.Background(), key(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(body) != size || cap(body) != size || body[size-1] != byte(size-1) {
		t.Fatalf("body len %d cap %d, last byte %d", len(body), cap(body), body[len(body)-1])
	}
}

// TestHeadThroughStoreIsNoMiss: a HEAD for a cold chunk is answered
// from the size model — the GET's Content-Length, and the store neither
// misses nor holds anything afterwards.
func TestHeadThroughStoreIsNoMiss(t *testing.T) {
	v := engineVideo()
	cat := dash.NewCatalog()
	if err := cat.Add(v); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	st := NewCatalogStore(cat, StoreConfig{Obs: reg})
	srv := dash.NewServer(cat, dash.WithStore(st))
	misses := reg.Counter("serve.store.misses")
	do := func(method string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(method, "/v/eng/c/3/1/2", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", method, rec.Code, rec.Body)
		}
		return rec
	}
	head := do("HEAD")
	if misses.Value() != 0 || st.Len() != 0 || head.Body.Len() != 0 {
		t.Fatalf("HEAD: %d misses, %d resident, %d body bytes; want none of each", misses.Value(), st.Len(), head.Body.Len())
	}
	get := do("GET")
	if misses.Value() != 1 {
		t.Fatalf("GET: %d misses, want 1", misses.Value())
	}
	if h, g := head.Header().Get("Content-Length"), get.Header().Get("Content-Length"); h != g || g != strconv.Itoa(get.Body.Len()) {
		t.Fatalf("Content-Length: HEAD %q, GET %q over %d bytes", h, g, get.Body.Len())
	}
}

// catalogGets is the chunk store's workload: reads (Get, or Pull) over
// every quality-3 chunk of a catalog video in turn. A one-byte budget
// keeps every body uncacheable, so each Get synthesizes; a budget that
// holds them all makes each a hit once the first round has filled the
// store. TestWriterStoreColdAllocBudget and TestWarmHitZeroAlloc hold
// the two to their budgets; BenchmarkChunkStore times them (warm ran
// ≥ 5× faster than cold when the store went in, ~800× since bodies are
// sealed).
func catalogGets(tb testing.TB, budget int64, read func(*Store, context.Context, ChunkKey) ([]byte, error)) func() {
	v := engineVideo()
	cat := dash.NewCatalog()
	if err := cat.Add(v); err != nil {
		tb.Fatal(err)
	}
	var keys []ChunkKey
	for idx := 0; idx < v.NumChunks(); idx++ {
		for tile := 0; tile < v.Grid.Tiles(); tile++ {
			keys = append(keys, ChunkKey{Video: v.ID, Quality: 3, Tile: tile, Index: idx})
		}
	}
	st := NewCatalogStore(cat, StoreConfig{Shards: 16, BudgetBytes: budget})
	ctx := context.Background()
	i := 0
	get := func() {
		if _, err := read(st, ctx, keys[i%len(keys)]); err != nil {
			tb.Fatal(err)
		}
		i++
	}
	for range keys { // fill the store and the writer pool
		get()
	}
	return get
}

// TestWriterStoreColdAllocBudget pins the streamed miss path's
// allocation count: the sealed body, the singleflight bookkeeping and
// nothing else — in particular no scratch buffer and no sealing copy.
// A Pull miss, which a store with room for every body still never
// caches, allocates no more than a Get miss.
func TestWriterStoreColdAllocBudget(t *testing.T) {
	if obs.RaceEnabled {
		t.Skip("race-mode sync.Pool drops Puts at random; the allocs/op pin holds only without -race")
	}
	get := testing.AllocsPerRun(100, catalogGets(t, 1, (*Store).Get))
	for _, tc := range []struct {
		name   string
		allocs float64
	}{
		{"Get", get},
		{"Pull", testing.AllocsPerRun(100, catalogGets(t, 256<<20, (*Store).Pull))},
	} {
		t.Logf("cold %s: %v allocs/op", tc.name, tc.allocs)
		// Sealed body + flight struct + done channel.
		if tc.allocs > 3 || tc.allocs > get {
			t.Errorf("cold %s: %v allocs/op, want <= 3 and <= a cold Get's %v", tc.name, tc.allocs, get)
		}
	}
}

// discardViewer is a ResponseWriter that takes every byte and keeps
// none, so a write costs no allocation of its own.
type discardViewer http.Header

func (d discardViewer) Header() http.Header         { return http.Header(d) }
func (d discardViewer) Write(p []byte) (int, error) { return len(p), nil }
func (d discardViewer) WriteHeader(int)             {}

// TestRecycledMissAllocBudget pins the lease: a full writer-form store
// whose every StreamChunk miss evicts a body it wrote out itself builds
// the next body of the same size class in the evicted one's buffer, so
// a warm miss allocates no body bytes — only the flight, the LRU
// element and the Content-Length header, read from MemStats.TotalAlloc.
// The same misses through Get, whose bodies leave the store, each
// allocate a body, so the reading does see one.
func TestRecycledMissAllocBudget(t *testing.T) {
	const size, resident, misses = 24 << 10, 4, 64
	ctx := context.Background()
	per := func(miss func(k ChunkKey)) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range misses {
			miss(key(i % (2 * resident)))
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / misses
	}
	st := New(WithWriterSynth(WriterSynth{
		Size: func(ChunkKey) (int, error) { return size, nil },
		Write: func(w io.Writer, k ChunkKey) error { // in place, as the catalog's synthesis builds
			room := w.(interface{ AvailableBuffer() []byte }).AvailableBuffer()[:size]
			for i := range room {
				room[i] = byte(k.Index + i)
			}
			_, err := w.Write(room)
			return err
		},
	}), WithShards(1), WithBudget(resident*size))
	w := discardViewer{}
	stream := func(k ChunkKey) {
		if n, err := st.StreamChunk(ctx, w, k.Video, k.Quality, k.Tile, k.Index, k.Layer); err != nil || n != size {
			t.Fatalf("StreamChunk(%v) wrote %d bytes: %v", k, n, err)
		}
	}
	per(stream) // fill the store and its free buffers
	streamed := per(stream)
	t.Logf("warm StreamChunk miss: %d bytes allocated", streamed)
	if streamed >= 1<<10 {
		t.Fatalf("warm StreamChunk miss: %d bytes allocated, want under 1 KiB: no %d-byte body", streamed, size)
	}
	got := per(func(k ChunkKey) {
		if _, err := st.Get(ctx, k); err != nil {
			t.Fatal(err)
		}
	})
	if got < size {
		t.Fatalf("cold Get: %d bytes allocated, want at least the %d-byte body", got, size)
	}
}

func BenchmarkChunkStore(b *testing.B) {
	for _, bc := range []struct {
		name   string
		budget int64
	}{{"cold", 1}, {"warm", 256 << 20}} {
		b.Run(bc.name, func(b *testing.B) {
			get := catalogGets(b, bc.budget, (*Store).Get)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				get()
			}
		})
	}
}
