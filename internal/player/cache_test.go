package player

import (
	"sync"
	"testing"
	"time"

	"sperke/internal/codec"
	"sperke/internal/obs"
	"sperke/internal/tiling"
)

func cid(q, tile, startSec int) tiling.ChunkID {
	return tiling.ChunkID{Quality: q, Tile: tiling.TileID(tile), Start: time.Duration(startSec) * time.Second}
}

func TestChunkCachePutHasRemove(t *testing.T) {
	c := NewChunkCache(0)
	c.Put(cid(1, 2, 0), 100)
	if !c.Has(cid(1, 2, 0)) {
		t.Fatal("missing just-put chunk")
	}
	if c.Has(cid(1, 3, 0)) {
		t.Fatal("phantom chunk")
	}
	if c.used != 100 || c.lru.Len() != 1 {
		t.Fatalf("Used=%d Len=%d", c.used, c.lru.Len())
	}
	c.Remove(cid(1, 2, 0))
	if c.Has(cid(1, 2, 0)) || c.used != 0 || c.lru.Len() != 0 {
		t.Fatal("remove failed")
	}
	c.Remove(cid(1, 2, 0)) // idempotent
}

func TestChunkCacheEvictsLRU(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewChunkCache(300)
	c.SetObs(reg)
	c.Put(cid(0, 0, 0), 100)
	c.Put(cid(0, 1, 0), 100)
	c.Put(cid(0, 2, 0), 100)
	// Touch tile 0 so tile 1 is LRU.
	c.Has(cid(0, 0, 0))
	c.Put(cid(0, 3, 0), 100) // over budget → evict tile 1
	if c.Has(cid(0, 1, 0)) {
		t.Fatal("LRU entry survived eviction")
	}
	if !c.Has(cid(0, 0, 0)) || !c.Has(cid(0, 3, 0)) {
		t.Fatal("wrong entry evicted")
	}
	if n := reg.Snapshot().Counters["player.chunk_cache.evictions"]; n != 1 {
		t.Fatalf("evictions = %d", n)
	}
	if c.used > 300 {
		t.Fatalf("Used %d exceeds budget", c.used)
	}
}

func TestChunkCachePutUpdatesSize(t *testing.T) {
	c := NewChunkCache(0)
	c.Put(cid(0, 0, 0), 100)
	c.Put(cid(0, 0, 0), 250) // same chunk re-put (e.g. upgraded layers)
	if c.used != 250 || c.lru.Len() != 1 {
		t.Fatalf("Used=%d Len=%d after re-put", c.used, c.lru.Len())
	}
}

func TestChunkCacheKeepsAtLeastOne(t *testing.T) {
	c := NewChunkCache(10)
	c.Put(cid(0, 0, 0), 100) // bigger than budget — still kept (can't evict itself)
	if c.lru.Len() != 1 {
		t.Fatal("sole oversized entry evicted")
	}
}

func TestFrameCacheLRUEviction(t *testing.T) {
	f := NewFrameCache(2)
	k1 := FrameCacheKey{Tile: 1}
	k2 := FrameCacheKey{Tile: 2}
	k3 := FrameCacheKey{Tile: 3}
	f.Put(k1)
	f.Put(k2)
	f.Has(k1) // refresh k1; k2 becomes LRU
	f.Put(k3)
	if f.Has(k2) {
		t.Fatal("LRU tile survived")
	}
	if !f.Has(k1) || !f.Has(k3) {
		t.Fatal("wrong tile evicted")
	}
	if f.lru.Len() != 2 {
		t.Fatalf("Len = %d", f.lru.Len())
	}
}

func TestFrameCacheHitRate(t *testing.T) {
	reg := obs.NewRegistry()
	f := NewFrameCache(4)
	f.SetObs(reg)
	f.Put(FrameCacheKey{Tile: 1})
	f.Has(FrameCacheKey{Tile: 1}) // hit
	f.Has(FrameCacheKey{Tile: 9}) // miss
	snap := reg.Snapshot()
	if h, m := snap.Counters["player.frame_cache.hits"], snap.Counters["player.frame_cache.misses"]; h != 1 || m != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", h, m)
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
	cfg, err := Figure5Config(codec.SGS7, 2)
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
	want := cfg.Device.Decoder.SyncDecodeTime(cfg.tilePixels())
	if res.Stall != want {
		t.Fatalf("Stall = %v, want %v", res.Stall, want)
	}
}

func TestShiftNoChangeNoCost(t *testing.T) {
	cfg, _ := Figure5Config(codec.SGS7, 2)
	f := NewFrameCache(8)
	res := f.Shift(cfg, []tiling.TileID{1, 2}, []tiling.TileID{1, 2}, 0, 0)
	if res.DeltaTiles != 0 || res.Stall != 0 {
		t.Fatalf("no-op shift cost %+v", res)
	}
}

func TestShiftWithEmptyCacheRedecodesAll(t *testing.T) {
	// The §3.5 contrast: without cached OOS tiles the whole new FoV
	// re-decodes, a much longer stall.
	cfg, _ := Figure5Config(codec.SGS7, 2)
	f := NewFrameCache(8)
	res := f.Shift(cfg, nil, []tiling.TileID{0, 1, 2, 3}, 0, 0)
	if res.Redecoded != 4 {
		t.Fatalf("Redecoded = %d, want 4", res.Redecoded)
	}
	if res.Stall <= 3*cfg.Device.Decoder.SyncDecodeTime(cfg.tilePixels()) {
		t.Fatal("full re-decode stall implausibly small")
	}
}

// TestChunkCacheConcurrentAccess hammers Put/Has/Remove from many
// goroutines: the fetch loop fills the cache while the decode scheduler
// drains it. Run under -race; correctness here is "no data race and no
// corrupted bookkeeping", not a specific final state.
func TestChunkCacheConcurrentAccess(t *testing.T) {
	c := NewChunkCache(50_000)
	c.SetObs(obs.NewRegistry())
	const workers = 8
	const ops = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				id := cid(w%3, i%17, i%5)
				switch i % 3 {
				case 0:
					c.Put(id, int64(100+i%900))
				case 1:
					c.Has(id)
				case 2:
					c.Remove(id)
				}
			}
		}(w)
	}
	wg.Wait()
	// Bookkeeping must still be internally consistent.
	if c.lru.Len() < 0 || c.used < 0 {
		t.Fatalf("corrupted bookkeeping: Len=%d Used=%d", c.lru.Len(), c.used)
	}
	if c.lru.Len() == 0 && c.used != 0 {
		t.Fatalf("empty cache reports %d used bytes", c.used)
	}
}

// TestFrameCacheConcurrentAccess races the decode pool's Put against
// the render loop's Has. Run under -race.
func TestFrameCacheConcurrentAccess(t *testing.T) {
	f := NewFrameCache(64)
	f.SetObs(obs.NewRegistry())
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
					f.Has(k)
				}
			}
		}(w)
	}
	wg.Wait()
	if n := f.lru.Len(); n < 0 || n > 64 {
		t.Fatalf("Len=%d outside [0, slots]", n)
	}
}

// TestChunkCacheOverBudgetPinned pins down the keep-one eviction
// semantics: a sole entry larger than the entire budget stays cached
// (evicting it buys nothing), and the condition is surfaced through
// the over-budget gauge rather than hidden.
func TestChunkCacheOverBudgetPinned(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewChunkCache(100)
	c.SetObs(reg)

	c.Put(cid(0, 0, 0), 250) // oversized: exceeds the whole budget
	if c.lru.Len() != 1 || c.used != 250 {
		t.Fatalf("oversized sole entry: Len=%d Used=%d, want 1/250", c.lru.Len(), c.used)
	}
	if c.used <= c.budget {
		t.Fatal("not over budget while used > budget")
	}
	snap := reg.Snapshot()
	if g := snap.Gauges["player.chunk_cache.over_budget"]; g != 1 {
		t.Fatalf("over_budget gauge = %d, want 1", g)
	}
	if g := snap.Gauges["player.chunk_cache.used_bytes"]; g != 250 {
		t.Fatalf("used_bytes gauge = %d, want 250", g)
	}

	// A second entry gives the evictor something to drop: the oversized
	// LRU entry goes, the new one stays, and the flag clears.
	c.Put(cid(0, 1, 0), 50)
	if c.Has(cid(0, 0, 0)) {
		t.Fatal("oversized entry survived once eviction had a candidate")
	}
	if c.used > c.budget {
		t.Fatal("over budget after recovery")
	}
	snap = reg.Snapshot()
	if g := snap.Gauges["player.chunk_cache.over_budget"]; g != 0 {
		t.Fatalf("over_budget gauge = %d after recovery, want 0", g)
	}
	if ev := snap.Counters["player.chunk_cache.evictions"]; ev != 1 {
		t.Fatalf("evictions counter = %d, want 1", ev)
	}
}
