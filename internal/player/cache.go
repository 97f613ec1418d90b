package player

import (
	"container/list"
	"sync"
	"time"

	"sperke/internal/obs"
	"sperke/internal/tiling"
)

// ChunkCache is the encoded-chunk cache of Fig. 4: fetched chunks wait
// in main memory until the decoding scheduler consumes them. It evicts
// least-recently-used entries when a byte budget is exceeded.
//
// The cache sits between the fetch loop and the decode scheduler, which
// in real deployments run on different goroutines, so it is safe for
// concurrent use.
type ChunkCache struct {
	mu     sync.Mutex
	budget int64
	used   int64
	lru    *list.List // front = most recent; values are *chunkEntry
	byID   map[tiling.ChunkID]*list.Element

	met chunkCacheMetrics
}

// chunkCacheMetrics caches the instruments SetObs wires; nil fields
// no-op.
type chunkCacheMetrics struct {
	hits       *obs.Counter
	misses     *obs.Counter
	evictions  *obs.Counter
	usedBytes  *obs.Gauge
	overBudget *obs.Gauge
	entries    *obs.Gauge
}

// NewChunkCache creates a cache with the given byte budget (<=0 means
// unlimited).
func NewChunkCache(budget int64) *ChunkCache {
	return &ChunkCache{
		budget: budget,
		lru:    list.New(),
		byID:   make(map[tiling.ChunkID]*list.Element),
	}
}

// SetObs wires the cache into a metrics registry: hit/miss/eviction
// counters, used-bytes and entry-count gauges, and the over-budget
// gauge that flags the keep-one case (a single entry larger than the
// whole budget stays cached — see Put). Nil disables metrics.
func (c *ChunkCache) SetObs(r *obs.Registry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.met = chunkCacheMetrics{
		hits:       r.Counter("player.chunk_cache.hits"),
		misses:     r.Counter("player.chunk_cache.misses"),
		evictions:  r.Counter("player.chunk_cache.evictions"),
		usedBytes:  r.Gauge("player.chunk_cache.used_bytes"),
		overBudget: r.Gauge("player.chunk_cache.over_budget"),
		entries:    r.Gauge("player.chunk_cache.entries"),
	}
}

// syncGauges mirrors occupancy into the gauges; call with mu held.
func (c *ChunkCache) syncGauges() {
	c.met.usedBytes.Set(c.used)
	c.met.entries.Set(int64(c.lru.Len()))
	over := int64(0)
	if c.budget > 0 && c.used > c.budget {
		over = 1
	}
	c.met.overBudget.Set(over)
}

type chunkEntry struct {
	id    tiling.ChunkID
	bytes int64
}

// Put stores (or refreshes) a chunk of the given size, evicting LRU
// entries as needed. Eviction deliberately stops at one entry: a single
// chunk larger than the whole budget stays cached (evicting it buys
// nothing — the chunk is needed for playback and would only be rushed
// again), and the over-budget gauge flags the condition instead.
func (c *ChunkCache) Put(id tiling.ChunkID, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.byID[id]; ok {
		ent := e.Value.(*chunkEntry)
		c.used += bytes - ent.bytes
		ent.bytes = bytes
		c.lru.MoveToFront(e)
	} else {
		c.byID[id] = c.lru.PushFront(&chunkEntry{id: id, bytes: bytes})
		c.used += bytes
	}
	if c.budget > 0 {
		for c.used > c.budget && c.lru.Len() > 1 {
			c.evictOldest()
		}
	}
	c.syncGauges()
}

// evictOldest drops the LRU entry; call with mu held.
func (c *ChunkCache) evictOldest() {
	e := c.lru.Back()
	if e == nil {
		return
	}
	ent := e.Value.(*chunkEntry)
	c.lru.Remove(e)
	delete(c.byID, ent.id)
	c.used -= ent.bytes
	c.met.evictions.Inc()
}

// Has reports whether the chunk is cached, refreshing its recency.
func (c *ChunkCache) Has(id tiling.ChunkID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.byID[id]
	if ok {
		c.lru.MoveToFront(e)
		c.met.hits.Inc()
	} else {
		c.met.misses.Inc()
	}
	return ok
}

// Remove drops a chunk (after it has been decoded, or superseded).
func (c *ChunkCache) Remove(id tiling.ChunkID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.byID[id]; ok {
		ent := e.Value.(*chunkEntry)
		c.lru.Remove(e)
		delete(c.byID, id)
		c.used -= ent.bytes
		c.syncGauges()
	}
}

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
// the decode pool fills it while the render loop probes it.
type FrameCache struct {
	mu    sync.Mutex
	slots int
	lru   *list.List
	byKey map[FrameCacheKey]*list.Element

	met frameCacheMetrics
}

// frameCacheMetrics caches the instruments SetObs wires; nil fields
// no-op.
type frameCacheMetrics struct {
	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
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

// SetObs wires the cache into a metrics registry (hit/miss/eviction
// counters, player.frame_cache.*). Nil disables metrics.
func (f *FrameCache) SetObs(r *obs.Registry) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.met = frameCacheMetrics{
		hits:      r.Counter("player.frame_cache.hits"),
		misses:    r.Counter("player.frame_cache.misses"),
		evictions: r.Counter("player.frame_cache.evictions"),
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
		f.met.evictions.Inc()
	}
	f.byKey[k] = f.lru.PushFront(k)
}

// Has reports whether the tile is cached, counting a hit or miss and
// refreshing recency on hit.
func (f *FrameCache) Has(k FrameCacheKey) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	e, ok := f.byKey[k]
	if ok {
		f.lru.MoveToFront(e)
		f.met.hits.Inc()
		return true
	}
	f.met.misses.Inc()
	return false
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
		if f.Has(FrameCacheKey{Tile: id, Interval: interval, Quality: quality}) {
			res.CacheHits++
			continue
		}
		res.Redecoded++
	}
	// Re-decodes block the next frame: they run synchronously because
	// the frame must display now.
	res.Stall = time.Duration(res.Redecoded) * cfg.Device.Decoder.SyncDecodeTime(cfg.tilePixels())
	return res
}
