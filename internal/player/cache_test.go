package player

import (
	"sync"
	"testing"

	"sperke/internal/tiling"
)

func TestFrameCacheLRUEviction(t *testing.T) {
	f := NewFrameCache(2)
	k1 := FrameCacheKey{Tile: 1}
	k2 := FrameCacheKey{Tile: 2}
	k3 := FrameCacheKey{Tile: 3}
	f.Put(k1)
	f.Put(k2)
	f.has(k1) // refresh k1; k2 becomes LRU
	f.Put(k3)
	if f.has(k2) {
		t.Fatal("LRU tile survived")
	}
	if !f.has(k1) || !f.has(k3) {
		t.Fatal("wrong tile evicted")
	}
	if f.lru.Len() != 2 {
		t.Fatalf("Len = %d", f.lru.Len())
	}
}

func TestFrameCachePutIdempotent(t *testing.T) {
	f := NewFrameCache(2)
	f.Put(FrameCacheKey{Tile: 1})
	f.Put(FrameCacheKey{Tile: 1})
	if f.lru.Len() != 1 {
		t.Fatalf("duplicate put created %d entries", f.lru.Len())
	}
}

func TestShiftDeltaOnly(t *testing.T) {
	cfg, err := Figure5Config(SGS7, 2)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFrameCache(8)
	// Old FoV: tiles 1,2; new FoV: tiles 2,3,4. Tile 3 is cached (was
	// fetched as OOS), 4 is not.
	f.Put(FrameCacheKey{Tile: 3, Interval: 7, Quality: 2})
	res := f.Shift(cfg, []tiling.TileID{1, 2}, []tiling.TileID{2, 3, 4}, 7, 2)
	if res.DeltaTiles != 2 {
		t.Fatalf("DeltaTiles = %d, want 2", res.DeltaTiles)
	}
	if res.CacheHits != 1 || res.Redecoded != 1 {
		t.Fatalf("hits=%d redecoded=%d, want 1/1", res.CacheHits, res.Redecoded)
	}
	want := cfg.Device.Decoder.syncDecodeTime(cfg.tilePixels())
	if res.Stall != want {
		t.Fatalf("Stall = %v, want %v", res.Stall, want)
	}
}

func TestShiftNoChangeNoCost(t *testing.T) {
	cfg, _ := Figure5Config(SGS7, 2)
	f := NewFrameCache(8)
	res := f.Shift(cfg, []tiling.TileID{1, 2}, []tiling.TileID{1, 2}, 0, 0)
	if res.DeltaTiles != 0 || res.Stall != 0 {
		t.Fatalf("no-op shift cost %+v", res)
	}
}

func TestShiftWithEmptyCacheRedecodesAll(t *testing.T) {
	// The §3.5 contrast: without cached OOS tiles the whole new FoV
	// re-decodes, a much longer stall.
	cfg, _ := Figure5Config(SGS7, 2)
	f := NewFrameCache(8)
	res := f.Shift(cfg, nil, []tiling.TileID{0, 1, 2, 3}, 0, 0)
	if res.Redecoded != 4 {
		t.Fatalf("Redecoded = %d, want 4", res.Redecoded)
	}
	if res.Stall <= 3*cfg.Device.Decoder.syncDecodeTime(cfg.tilePixels()) {
		t.Fatal("full re-decode stall implausibly small")
	}
}

// TestFrameCacheConcurrentAccess races the decoders' Put against the
// render loop's Has. Run under -race.
func TestFrameCacheConcurrentAccess(t *testing.T) {
	f := NewFrameCache(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := FrameCacheKey{Tile: tiling.TileID(i % 32), Interval: i % 7, Quality: w % 3}
				if i%2 == 0 {
					f.Put(k)
				} else {
					f.has(k)
				}
			}
		}(w)
	}
	wg.Wait()
	if n := f.lru.Len(); n < 0 || n > 64 {
		t.Fatalf("Len=%d outside [0, slots]", n)
	}
}
