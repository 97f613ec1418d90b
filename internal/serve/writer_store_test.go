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

// TestWriterStoreColdAllocBudget pins the streamed miss path's
// allocation count: the sealed body, the singleflight bookkeeping and
// nothing else — in particular no scratch buffer and no sealing copy.
func TestWriterStoreColdAllocBudget(t *testing.T) {
	if obs.RaceEnabled {
		t.Skip("race-mode sync.Pool drops Puts at random; the allocs/op pin holds only without -race")
	}
	ctx := context.Background()
	block := make([]byte, 64)
	zero := New(WithWriterSynth(WriterSynth{
		Size: func(k ChunkKey) (int, error) { return 512, nil },
		Write: func(w io.Writer, k ChunkKey) error {
			for i := 0; i < 8; i++ {
				if _, err := w.Write(block); err != nil {
					return err
				}
			}
			return nil
		},
	}), WithShards(1), WithBudget(1))
	// Warm the writer pool.
	if _, err := zero.Get(ctx, key(0)); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := zero.Get(ctx, key(1)); err != nil {
			t.Fatal(err)
		}
	})
	// Sealed body + flight struct + done channel.
	if allocs > 3 {
		t.Fatalf("streamed cold Get: %v allocs/op, want <= 3", allocs)
	}
}
