package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
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

// catalogGets is the chunk store's workload: Gets over every quality-3
// chunk of a catalog video in turn. A one-byte budget keeps every body
// uncacheable, so each Get synthesizes; a budget that holds them all
// makes each a hit once the first round has filled the store.
// TestWriterStoreColdAllocBudget and TestWarmHitZeroAlloc hold the two
// to their budgets; BenchmarkChunkStore times them (warm ran ≥ 5× faster
// than cold when the store went in, ~800× since bodies are sealed).
func catalogGets(tb testing.TB, budget int64) func() {
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
		if _, err := st.Get(ctx, keys[i%len(keys)]); err != nil {
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
func TestWriterStoreColdAllocBudget(t *testing.T) {
	if obs.RaceEnabled {
		t.Skip("race-mode sync.Pool drops Puts at random; the allocs/op pin holds only without -race")
	}
	// Sealed body + flight struct + done channel.
	if allocs := testing.AllocsPerRun(100, catalogGets(t, 1)); allocs > 3 {
		t.Fatalf("streamed cold Get: %v allocs/op, want <= 3", allocs)
	}
}

func BenchmarkChunkStore(b *testing.B) {
	for _, bc := range []struct {
		name   string
		budget int64
	}{{"cold", 1}, {"warm", 256 << 20}} {
		b.Run(bc.name, func(b *testing.B) {
			get := catalogGets(b, bc.budget)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				get()
			}
		})
	}
}
