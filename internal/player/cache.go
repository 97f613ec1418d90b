package player

import (
	"container/list"
	"sync"
	"time"

	"sperke/internal/tiling"
)

// FrameCacheKey identifies a decoded tile for one time interval at one
// quality.
type FrameCacheKey struct {
	Tile     tiling.TileID
	Interval int
	Quality  int
}

// FrameCache is the decoded-frame cache of §3.5: uncompressed tiles in
// video memory (FBOs in the prototype). Its two payoffs, which E13
// measures, are (a) decoders work asynchronously ahead of render and
// (b) when HMP was wrong, the FoV shifts by decoding only the missing
// "delta" tiles instead of the whole view. Safe for concurrent use:
// decoders fill it while the render loop probes it.
type FrameCache struct {
	mu    sync.Mutex
	slots int
	lru   *list.List
	byKey map[FrameCacheKey]*list.Element
}

// NewFrameCache creates a cache holding up to slots decoded tiles
// (video memory is the scarce resource; each uncompressed 2K tile is
// ~1.3 MB at NV12).
func NewFrameCache(slots int) *FrameCache {
	if slots < 1 {
		slots = 1
	}
	return &FrameCache{
		slots: slots,
		lru:   list.New(),
		byKey: make(map[FrameCacheKey]*list.Element),
	}
}

// Put inserts a decoded tile, evicting the LRU tile if full.
func (f *FrameCache) Put(k FrameCacheKey) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if e, ok := f.byKey[k]; ok {
		f.lru.MoveToFront(e)
		return
	}
	for f.lru.Len() >= f.slots {
		e := f.lru.Back()
		delete(f.byKey, e.Value.(FrameCacheKey))
		f.lru.Remove(e)
	}
	f.byKey[k] = f.lru.PushFront(k)
}

// has reports whether the tile is cached, refreshing its recency on a
// hit.
func (f *FrameCache) has(k FrameCacheKey) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	e, ok := f.byKey[k]
	if ok {
		f.lru.MoveToFront(e)
	}
	return ok
}

// ShiftResult describes the cost of moving the FoV after an HMP error.
type ShiftResult struct {
	// DeltaTiles are the newly visible tiles that had to come from
	// somewhere.
	DeltaTiles int
	// CacheHits of those were already decoded (fetched earlier as OOS).
	CacheHits int
	// Redecoded tiles had to be decoded synchronously before display.
	Redecoded int
	// Stall is the render hiccup the re-decodes caused.
	Stall time.Duration
}

// Shift computes the cost of changing the visible tile set from old to
// new at the given interval and quality. With the frame cache, only
// missing delta tiles are decoded; the §3.5 contrast — re-decoding the
// entire new FoV — is what you get with an empty cache.
func (f *FrameCache) Shift(cfg PipelineConfig, old, new []tiling.TileID, interval, quality int) ShiftResult {
	inOld := make(map[tiling.TileID]bool, len(old))
	for _, id := range old {
		inOld[id] = true
	}
	var res ShiftResult
	for _, id := range new {
		if inOld[id] {
			continue
		}
		res.DeltaTiles++
		if f.has(FrameCacheKey{Tile: id, Interval: interval, Quality: quality}) {
			res.CacheHits++
			continue
		}
		res.Redecoded++
	}
	// Re-decodes block the next frame: they run synchronously because
	// the frame must display now.
	res.Stall = time.Duration(res.Redecoded) * cfg.Device.Decoder.syncDecodeTime(cfg.tilePixels())
	return res
}
