package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
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

// sightBody is the body size of sightStore's keys but those of Quality
// 9, whose bodies are larger than the store's one shard.
const sightBody = 8 << 10

func sightSize(k ChunkKey) int {
	if k.Quality == 9 {
		return 5 * sightBody
	}
	return sightBody
}

// sightStore is a one-shard writer-form store with room for the given
// number of sightBody-byte bodies. The first Write of hold's key, when
// hold is set, waits for release once it has said so on entered.
func sightStore(reg *obs.Registry, hold *sightHold, bodies int64) *Store {
	return New(WithWriterSynth(WriterSynth{
		Size: func(k ChunkKey) (int, error) { return sightSize(k), nil },
		Write: func(w io.Writer, k ChunkKey) error {
			if hold != nil && k == hold.key && hold.held.CompareAndSwap(false, true) {
				close(hold.entered)
				<-hold.release
			}
			return writeSight(w, k)
		},
	}), WithShards(1), WithBudget(bodies*sightBody), WithObs(reg))
}

// ramp is two turns of the byte values, so any 256 bytes of patternBody
// are a slice of it.
var ramp = func() (b [512]byte) {
	for i := range b {
		b[i] = byte(i)
	}
	return b
}()

// writeSight writes patternBody's bytes for k out of ramp, a turn at a
// time: it needs no AvailableBuffer and allocates nothing, so it
// streams into any writer as the catalog's synthesis does.
func writeSight(w io.Writer, k ChunkKey) error {
	base := int(byte(k.Index*31 + k.Tile*7 + k.Quality))
	for off, size := 0, sightSize(k); off < size; {
		start := (base + off) & 255
		n, err := w.Write(ramp[start : start+min(256, size-off)])
		if err != nil {
			return err
		}
		off += n
	}
	return nil
}

type sightHold struct {
	key              ChunkKey
	held             atomic.Bool
	entered, release chan struct{}
}

// getSight Gets k and checks the bytes served.
func getSight(t *testing.T, st *Store, k ChunkKey) {
	want, _ := patternBody(sightSize(k))(context.Background(), k)
	if got, err := st.Get(context.Background(), k); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Get(%v): %d bytes, %v; want the %d-byte body", k, len(got), err, len(want))
	}
}

// streamSight reads k through ChunkTo and checks the bytes written.
func streamSight(t *testing.T, st *Store, k ChunkKey) {
	want, _ := patternBody(sightSize(k))(context.Background(), k)
	var buf bytes.Buffer
	if _, err := st.ChunkTo(context.Background(), &buf, k.Video, k.Quality, k.Tile, k.Index, k.Layer); err != nil || !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("ChunkTo(%v): %d bytes, %v; want the %d-byte body", k, buf.Len(), err, len(want))
	}
}

// fillSight Gets keys 0 to n-1 in turn, each twice when hit is set.
// In sightStore(…, 4), past the first four each evicts the shard's LRU
// tail, so 52 fills without a hit leave 48 evictions of bodies never
// hit: the gate.
func fillSight(t *testing.T, st *Store, n int, hit bool) {
	for i := range n {
		getSight(t, st, key(i))
		if hit {
			getSight(t, st, key(i))
		}
	}
}

// TestSecondSightAdmission: a writer-form store caches every miss while
// it has room, and while most of its evictions are of bodies that had
// been hit. Once 48 of its last 64 evictions were of bodies never hit,
// a miss is cached only at second sight: a key missed for the first
// time is served, exact, and not cached, and evicts nothing; the same
// key missed again, or a flight a waiter joined, is cached. A pinned
// first sight leaves no flight, so a read of the key while it streams
// is a second sight, which misses again and is cached. A pinned read
// of a body larger than the shard is admitted, and is uncacheable as
// ever. A Reset empties the eviction record. Refused keys that come
// back switch the rule off.
func TestSecondSightAdmission(t *testing.T) {
	probe := ChunkKey{Video: "v", Quality: 3, Index: 1000}
	big := ChunkKey{Video: "v", Quality: 9, Index: 1000}
	for _, tc := range []struct {
		name     string
		fill     int
		hit      bool
		probe    func(t *testing.T, st *Store, hold *sightHold)
		resident bool
		// the counters' moves over the probe
		misses, evictions, uncacheable, shared int64
	}{
		{name: "room", fill: 2, resident: true, misses: 1},
		{name: "full, evictions hit", fill: 52, hit: true, resident: true, misses: 1, evictions: 1},
		{name: "first sight", fill: 52, misses: 1},
		{name: "second sight", fill: 52, resident: true, misses: 2, evictions: 1, probe: func(t *testing.T, st *Store, _ *sightHold) {
			getSight(t, st, probe)
			getSight(t, st, probe)
		}},
		{name: "first sight, pinned", fill: 52, misses: 1, probe: func(t *testing.T, st *Store, _ *sightHold) {
			streamSight(t, st, probe)
		}},
		{name: "herd", fill: 52, resident: true, misses: 1, evictions: 1, shared: 1, probe: func(t *testing.T, st *Store, hold *sightHold) {
			done := make(chan struct{})
			go func() {
				defer close(done)
				getSight(t, st, probe)
			}()
			<-hold.entered
			go func() {
				for !st.waiting(probe) {
					runtime.Gosched()
				}
				close(hold.release)
			}()
			getSight(t, st, probe)
			<-done
		}},
		{name: "herd, pinned", fill: 52, resident: true, misses: 2, evictions: 1, probe: func(t *testing.T, st *Store, hold *sightHold) {
			done := make(chan struct{})
			go func() {
				defer close(done)
				streamSight(t, st, probe)
			}()
			<-hold.entered
			second := make(chan struct{})
			go func() {
				defer close(second)
				streamSight(t, st, probe)
			}()
			ended := func() bool {
				select {
				case <-second:
					return true
				default:
					return false
				}
			}
			for !ended() && !st.waiting(probe) { // a read that joined a flight would wait on the held one
				runtime.Gosched()
			}
			close(hold.release)
			<-second
			<-done
		}},
		{name: "oversize", fill: 52, misses: 1, uncacheable: 1, probe: func(t *testing.T, st *Store, _ *sightHold) {
			streamSight(t, st, big)
			if st.Contains(big) {
				t.Error("an oversized body is resident")
			}
		}},
		{name: "Reset", fill: 52, resident: true, misses: 5, evictions: 1, probe: func(t *testing.T, st *Store, _ *sightHold) {
			st.Reset()
			fillSight(t, st, 4, false)
			getSight(t, st, probe)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			hold := &sightHold{key: probe, entered: make(chan struct{}), release: make(chan struct{})}
			if !strings.HasPrefix(tc.name, "herd") {
				hold = nil
			}
			st := sightStore(reg, hold, 4)
			fillSight(t, st, tc.fill, tc.hit)
			before := reg.Snapshot().Counters
			if tc.probe != nil {
				tc.probe(t, st, hold)
			} else {
				getSight(t, st, probe)
			}
			after := reg.Snapshot().Counters
			for _, name := range []string{"misses", "evictions", "uncacheable", "singleflight_shared"} {
				want := map[string]int64{"misses": tc.misses, "evictions": tc.evictions, "uncacheable": tc.uncacheable, "singleflight_shared": tc.shared}[name]
				if got := after["serve.store."+name] - before["serve.store."+name]; got != want {
					t.Errorf("serve.store.%s moved by %d, want %d", name, got, want)
				}
			}
			if st.Contains(probe) != tc.resident {
				t.Errorf("probe resident %v, want %v", st.Contains(probe), tc.resident)
			}
		})
	}
	// A store of 512 bodies has a 128-slot table. Once the gate is on, a
	// working set of 100 keys that fits is refused at first sight and
	// outlasts a 64-slot table, but comes back as second sights, and
	// its refused keys coming back switch the gate off: the whole set is
	// cached within a few passes.
	t.Run("working set comes back", func(t *testing.T) {
		const set, passes = 100, 4
		reg := obs.NewRegistry()
		st := sightStore(reg, nil, 512)
		fillSight(t, st, 512+48, false)
		for pass := 1; ; pass++ {
			before := reg.Snapshot().Counters["serve.store.hits"]
			for i := range set {
				getSight(t, st, ChunkKey{Video: "v", Quality: 3, Index: 1000 + i})
			}
			hits := reg.Snapshot().Counters["serve.store.hits"] - before
			t.Logf("pass %d: %d hits of %d", pass, hits, set)
			if hits == set {
				return
			}
			if pass == passes {
				t.Fatalf("%d passes over a %d-key set that fits, and the last hit %d", passes, set, hits)
			}
		}
	})
}

// TestSecondSightAllocBudget: once a full writer-form store refuses
// first sights, a pinned first-sight miss streams from the synthesizer
// into the viewer, so it allocates no body bytes, only the flight, the
// counting writer and the Content-Length header, read from
// MemStats.TotalAlloc; a store that cached it would allocate the body.
// A first-sight Get still allocates the body it hands out.
func TestSecondSightAllocBudget(t *testing.T) {
	const misses = 64
	st := sightStore(nil, nil, 4)
	fillSight(t, st, 52, false)
	ctx, w, next := context.Background(), discardViewer{}, 2000
	per := func(miss func(k ChunkKey)) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range misses {
			next++
			miss(ChunkKey{Video: "v", Quality: 3, Index: next})
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / misses
	}
	streamed := per(func(k ChunkKey) {
		if n, err := st.StreamChunk(ctx, w, k.Video, k.Quality, k.Tile, k.Index, k.Layer); err != nil || n != sightBody {
			t.Fatalf("StreamChunk(%v) wrote %d bytes: %v", k, n, err)
		}
	})
	t.Logf("first-sight StreamChunk miss: %d bytes allocated", streamed)
	if streamed >= 1<<10 {
		t.Fatalf("first-sight StreamChunk miss: %d bytes allocated, want under 1 KiB: no %d-byte body", streamed, sightBody)
	}
	got := per(func(k ChunkKey) {
		if body, err := st.Get(ctx, k); err != nil || len(body) != sightBody {
			t.Fatalf("Get(%v): %d bytes, %v", k, len(body), err)
		}
	})
	t.Logf("first-sight Get miss: %d bytes allocated", got)
	if got < sightBody {
		t.Fatalf("first-sight Get: %d bytes allocated, want at least the %d-byte body", got, sightBody)
	}
}

// TestRefusedStreamOutcomes: a pinned first sight the rule refuses
// streams from the synthesizer into the reader's writer, and each way
// that stream can go wrong ends as dash.Server needs it to. A stream
// shorter than Size fails with the bytes it wrote, so the server
// abandons the response rather than end a short 200; a synthesis error
// before the first byte is not dash.ErrViewerGone, so the server can
// still answer it with a status; and a viewer whose write fails is
// dash.ErrViewerGone. None of them caches anything.
func TestRefusedStreamOutcomes(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct {
		name   string
		write  func(w io.Writer, k ChunkKey) error
		viewer io.Writer
		gone   bool
		wrote  bool
	}{
		{name: "short stream", wrote: true, write: func(w io.Writer, k ChunkKey) error {
			_, err := w.Write(ramp[:100])
			return err
		}},
		{name: "synthesis error", write: func(io.Writer, ChunkKey) error { return boom }},
		{name: "viewer gone", gone: true, viewer: brokenWriter{}, write: writeSight},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fail := false
			st := New(WithWriterSynth(WriterSynth{
				Size: func(k ChunkKey) (int, error) { return sightSize(k), nil },
				Write: func(w io.Writer, k ChunkKey) error {
					if fail {
						return tc.write(w, k)
					}
					return writeSight(w, k)
				},
			}), WithShards(1), WithBudget(4*sightBody))
			fillSight(t, st, 52, false)
			fail = true
			k := ChunkKey{Video: "v", Quality: 3, Index: 1000}
			var buf bytes.Buffer
			w := tc.viewer
			if w == nil {
				w = &buf
			}
			n, err := st.ChunkTo(context.Background(), w, k.Video, k.Quality, k.Tile, k.Index, k.Layer)
			if err == nil || errors.Is(err, dash.ErrViewerGone) != tc.gone || (n > 0) != tc.wrote || n != int64(buf.Len()) {
				t.Fatalf("ChunkTo wrote %d bytes (%d reached the buffer): %v; want an error, ErrViewerGone %v, bytes written %v", n, buf.Len(), err, tc.gone, tc.wrote)
			}
			if st.Contains(k) {
				t.Fatal("a failed stream's key is resident")
			}
		})
	}
}

// brokenWriter is a viewer that has hung up.
type brokenWriter struct{}

func (brokenWriter) Write([]byte) (int, error) { return 0, syscall.EPIPE }

// waiting reports whether a waiter has joined k's flight.
func (s *Store) waiting(k ChunkKey) bool {
	sh := s.shard(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	fl := sh.inflight[k]
	return fl != nil && fl.shared
}
