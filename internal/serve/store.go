// Package serve is Sperke's horizontally-sharded serving layer: the
// piece of the ROADMAP's "heavy traffic from millions of users" story
// that makes one origin cheap to hit. Two components live here:
//
//   - Store, a sharded chunk cache: N power-of-two lock-striped shards
//     keyed by FNV-1a of (video, quality, tile, layer, index), each with
//     its own LRU list and a slice of the global byte budget, plus
//     singleflight de-duplication so a thundering herd of cold requests
//     for the same chunk synthesizes its body exactly once. Cached
//     bodies are served read-only. A writer-form miss streams into one
//     body-sized allocation. A full writer-form shard whose evictions
//     are mostly of bodies never hit admits a miss only at second
//     sight: a key it has not missed lately is served and not cached,
//     and a read that writes it out (StreamChunk, ChunkTo) streams it
//     into the reader's writer, building nothing.
//
//   - Engine, a worker-pool session driver: K simulated viewers (each a
//     core.Session, optionally doubled by a dash.Client fetching the
//     same chunks over real HTTP) run concurrently on a bounded pool
//     while per-session seeded determinism is preserved, reporting
//     aggregate QoE and p50/p95/p99 fetch latency through internal/obs.
//
// Everything in this package is deterministic on the simulation side:
// per-session QoE is a pure function of the session seed regardless of
// worker count. The only wall-clock reads are the HTTP fetch-latency
// measurements, taken through the obs.Wall seam
// (TestEngineDeterministicAcrossWorkerCounts checks the rest).
package serve

import (
	"container/list"
	"context"
	"fmt"
	"io"
	"math/bits"
	"sync"

	"sperke/internal/obs"
)

// ChunkKey addresses one servable chunk body: an AVC chunk or a single
// SVC layer of a tile at one interval of one video.
type ChunkKey struct {
	Video   string
	Quality int
	Tile    int
	Index   int
	Layer   bool
}

func (k ChunkKey) String() string {
	form := "avc"
	if k.Layer {
		form = "svc-layer"
	}
	return fmt.Sprintf("%s/q%d/t%d/i%d(%s)", k.Video, k.Quality, k.Tile, k.Index, form)
}

// Fold continues the FNV-1a state h over the key's bytes: the video
// ID, Quality, Tile and Index as eight little-endian bytes each, then
// a layer byte. It is the one layout of a key for hashing — the
// store's shard hash starts it from the offset basis, the cluster's
// rendezvous score from a node name's fold — so placement is stable
// across processes and Go versions.
func (k ChunkKey) Fold(h uint64) uint64 {
	const prime64 = 1099511628211
	for i := 0; i < len(k.Video); i++ {
		h = (h ^ uint64(k.Video[i])) * prime64
	}
	for _, v := range [3]int{k.Quality, k.Tile, k.Index} {
		u := uint64(v)
		for s := 0; s < 64; s += 8 {
			h = (h ^ u>>s&0xff) * prime64
		}
	}
	var layer uint64
	if k.Layer {
		layer = 1
	}
	return (h ^ layer) * prime64
}

// hash is the key's shard hash: FNV-1a from its offset basis.
func (k ChunkKey) hash() uint64 { return k.Fold(14695981039346656037) }

// WriterSynth is the sized streaming miss form: Size reports the exact
// byte length of a key's body and Write streams those bytes into w. To
// build a body the store allocates it at exactly Size bytes and hands
// Write a writer over it that lends the room out (AvailableBuffer), so
// a synthesizer can build in place — no scratch buffer, no post-build
// copy, one body-sized allocation per miss (the bytes the cache
// retains, sealed at len == cap). A miss that StreamChunk or ChunkTo
// writes out and the second-sight rule refuses is built nowhere: Write
// gets the reader's own writer, which can be any io.Writer. Both
// functions must be pure, and Write must emit exactly Size bytes; a
// mismatch fails the read rather than caching a half-built body or
// ending a stream short. Write takes no context: a flight runs to
// completion (see Get).
type WriterSynth struct {
	Size  func(key ChunkKey) (int, error)
	Write func(w io.Writer, key ChunkKey) error
}

// bodySynth is the body miss form: it returns a key's whole body and
// must be pure on success (the same key always yields the same bytes).
// It takes no context, as a flight runs to completion (see Get). The
// returned slice is retained as the shared cached copy without a copy —
// an edge whose bodySynth pulls from an origin store (Pull) shares the
// origin's sealed slice on a hit and, on a miss, holds the only cached
// copy — so it must be immutable from then on.
type bodySynth func(key ChunkKey) ([]byte, error)

// StoreConfig tunes a Store. The zero value gives 16 shards and a
// 256 MiB budget with no metrics.
type StoreConfig struct {
	// Shards is the shard count, rounded up to a power of two; 0
	// defaults to 16.
	Shards int
	// BudgetBytes is the global cache budget, partitioned evenly across
	// shards (each shard evicts its own LRU tail past its slice, so the
	// whole store never exceeds the budget); 0 defaults to 256 MiB.
	BudgetBytes int64
	// Obs, when set, records hits, misses, evictions, uncacheable
	// oversized bodies, singleflight-shared synths and resident bytes
	// (serve.store.*). Nil disables metrics.
	Obs *obs.Registry
}

// flight is one in-progress synthesis, run to completion by the caller
// that opened it; concurrent callers for the same key wait on done
// instead of synthesizing again. resets is the shard's Reset count when
// the flight opened: one that completes under another count belongs to
// a cache that is gone, and caches nothing. shared records that a
// waiter joined: a second sight of the key.
type flight struct {
	done   chan struct{}
	body   []byte
	err    error
	resets uint64
	shared bool
}

// entry is one cached body on a shard's LRU list. hit, set under the
// shard lock, records a read served from it while resident.
type entry struct {
	key  ChunkKey
	body []byte
	hit  bool
}

// The second-sight rule of a writer-form shard (see admitsLocked).
const (
	// seenBytes sizes a shard's table of recently missed keys: a slot
	// per 32 KiB of its budget, rounded up to a power of two, so the
	// table remembers about as many misses as the shard holds bodies
	// (origin_cold's average ~44 KiB: 64 slots a 2 MiB shard). A working
	// set that fits in the store then comes back as second sights, and
	// is cached; a table much longer than the shard lets more one-hit
	// keys pass as repeats, each cached only to be evicted. minSeen and
	// maxSeen bound the table at 512 bytes and 128 KiB a shard.
	seenBytes        = 32 << 10
	minSeen, maxSeen = 64, 1 << 14
	// seenWays is the slots of a set, which keeps its keys newest
	// first and drops its oldest for a new one: keys whose hashes share
	// a set do not push each other out as they would share one slot.
	seenWays = 4
	// gateUnhit is three quarters of the 64 outcomes an eviction record
	// (one word) holds. Below it enough bodies had earned a hit that
	// caching every miss pays, as for a crowd whose viewers share
	// chunks, whose hits a rule without the gate cut by 28-40 % (E41).
	gateUnhit = 48
)

// shard is one lock stripe: its own map, LRU list, byte accounting,
// in-flight synthesis table and count of Resets, plus, on a writer-form
// store, the admission rule's memory: the remixed hashes of the keys it
// missed lately, in sets of seenWays picked by the hash's top bits, bit
// 0 set for a key it refused, and its eviction record, one bit per
// outcome, newest lowest, set for a body that left the shard, or a
// refused key that left the table, without a hit.
type shard struct {
	mu        sync.Mutex
	entries   map[ChunkKey]*list.Element
	lru       list.List // front = most recently used
	bytes     int64
	budget    int64
	inflight  map[ChunkKey]*flight
	resets    uint64
	seen      []uint64
	seenShift uint
	unhit     uint64
}

// storeMetrics caches the store's instruments; nil fields no-op.
type storeMetrics struct {
	hits        *obs.Counter
	misses      *obs.Counter
	evictions   *obs.Counter
	uncacheable *obs.Counter
	shared      *obs.Counter
	bytes       *obs.Gauge
}

// Store is the sharded chunk cache. Safe for concurrent use. Bodies
// returned by Get are shared with the cache and must be treated as
// read-only (see Get for the exact contract).
type Store struct {
	shards []*shard
	mask   uint64
	// miss is the body form's synthesis (WithBodySynth); nil on a
	// writer-form store, which builds with ws.
	miss bodySynth
	ws   WriterSynth
	met  storeMetrics
}

// Option configures a Store built by New. Exactly one synthesis option
// (WithWriterSynth or WithBodySynth) must be supplied; the sizing
// options are orthogonal and optional. Nil options are ignored.
type Option func(*storeOptions)

type storeOptions struct {
	cfg    StoreConfig
	writer WriterSynth
	body   bodySynth
}

// WithWriterSynth sets the writer-first miss form: misses allocate the
// cached body at its exact final size and stream into it. This is the
// writer-first single source of truth — the same Write that streams a
// body to a socket fills the cache, so cached and streamed bytes cannot
// diverge.
func WithWriterSynth(ws WriterSynth) Option {
	return func(o *storeOptions) { o.writer = ws }
}

// WithBodySynth sets the body miss form: a miss caches the body the
// synthesizer returns, as it is. A cluster edge pulls its misses from
// the origin this way.
func WithBodySynth(synth bodySynth) Option {
	return func(o *storeOptions) { o.body = synth }
}

// WithShards sets the shard count (rounded up to a power of two);
// values <= 0 keep the default of 16.
func WithShards(n int) Option {
	return func(o *storeOptions) { o.cfg.Shards = n }
}

// WithBudget sets the global cache budget in bytes, partitioned evenly
// across shards; values <= 0 keep the default of 256 MiB.
func WithBudget(b int64) Option {
	return func(o *storeOptions) { o.cfg.BudgetBytes = b }
}

// WithObs wires the store's serve.store.* instruments into a registry.
func WithObs(r *obs.Registry) Option {
	return func(o *storeOptions) { o.cfg.Obs = r }
}

// New builds a store from functional options. Exactly one synthesis
// option selects the miss form; supplying neither or both is a
// programming error and panics.
func New(opts ...Option) *Store {
	var o storeOptions
	for _, opt := range opts {
		opt(&o)
	}
	hasWriter := o.writer.Size != nil || o.writer.Write != nil
	if hasWriter == (o.body != nil) {
		panic("serve: New needs exactly one synthesis option (WithWriterSynth or WithBodySynth)")
	}
	if hasWriter && (o.writer.Size == nil || o.writer.Write == nil) {
		panic("serve: WithWriterSynth needs both Size and Write")
	}
	s := newStore(o.cfg)
	s.miss, s.ws = o.body, o.writer
	if hasWriter {
		for _, sh := range s.shards {
			n := minSeen
			for n < maxSeen && int64(n)*seenBytes < sh.budget {
				n <<= 1
			}
			sh.seen, sh.seenShift = make([]uint64, n), uint(64-bits.TrailingZeros(uint(n/seenWays)))
		}
	}
	return s
}

func newStore(cfg StoreConfig) *Store {
	n := cfg.Shards
	if n <= 0 {
		n = 16
	}
	// Round up to a power of two so shard selection is a mask.
	p := 1
	for p < n {
		p <<= 1
	}
	budget := cfg.BudgetBytes
	if budget <= 0 {
		budget = 256 << 20
	}
	per := budget / int64(p)
	if per < 1 {
		per = 1
	}
	s := &Store{
		shards: make([]*shard, p),
		mask:   uint64(p - 1),
		met: storeMetrics{
			hits:        cfg.Obs.Counter("serve.store.hits"),
			misses:      cfg.Obs.Counter("serve.store.misses"),
			evictions:   cfg.Obs.Counter("serve.store.evictions"),
			uncacheable: cfg.Obs.Counter("serve.store.uncacheable"),
			shared:      cfg.Obs.Counter("serve.store.singleflight_shared"),
			bytes:       cfg.Obs.Gauge("serve.store.bytes"),
		},
	}
	for i := range s.shards {
		s.shards[i] = &shard{
			entries:  make(map[ChunkKey]*list.Element),
			budget:   per,
			inflight: make(map[ChunkKey]*flight),
		}
	}
	return s
}

// Shards reports the shard count (always a power of two).
func (s *Store) Shards() int { return len(s.shards) }

func (s *Store) shard(k ChunkKey) *shard { return s.shards[k.hash()&s.mask] }

// admitsLocked is a writer-form shard's second-sight rule for a miss of
// the key hashed h whose body is size bytes, and notes the miss in the
// table. It refuses the body only when at least gateUnhit of the
// shard's last 64 outcomes were unhit, and the key is not in the table:
// on a full origin most keys are asked for once, and caching such a key
// would only evict a body that may be asked for again. A shard gets
// there only by evicting, so it is full: the room an eviction leaves
// when the body it made way for is smaller is not offered to a first
// sight, as whether one fits there turns on the order the last few
// misses landed in, and admitting by it made the store's counts swing
// with that order (E41). A refused key goes on the record too: unhit
// when it drops out of its set, hit when it is missed again, as it
// would have been hit had it been cached. So the record measures the
// same thing with the gate on as off: on a full origin it stays far
// above the gate, and a gate that refuses keys worth caching switches
// itself off. An oversized body is admitted here, and counted
// uncacheable by insertLocked.
func (sh *shard) admitsLocked(h uint64, size int64) bool {
	h *= 0x9e3779b97f4a7c15 // FNV-1a's top bits spread near indexes poorly
	set := sh.seen[(h>>sh.seenShift)*seenWays:][:seenWays]
	i := 0
	for i < seenWays-1 && (set[i]^h)&^1 != 0 {
		i++
	}
	seen := (set[i]^h)&^1 == 0
	if set[i]&1 != 0 {
		sh.noteLocked(!seen)
	}
	admit := seen || size > sh.budget || bits.OnesCount64(sh.unhit) < gateUnhit
	copy(set[1:i+1], set[:i])
	set[0] = h &^ 1
	if !admit {
		set[0] |= 1
	}
	return admit
}

// noteLocked shifts one outcome into the shard's eviction record.
func (sh *shard) noteLocked(unhit bool) {
	sh.unhit <<= 1
	if unhit {
		sh.unhit |= 1
	}
}

// Get returns the body for key, synthesizing it on a miss. Concurrent
// callers for the same cold key share one synthesis (singleflight). No
// flight is canceled: the caller that opens one runs it to completion
// whatever its context does meanwhile, and a caller that joined one
// returns ctx.Err() as soon as its own context ends. On a writer-form
// store the second-sight rule (admitsLocked) decides once, when the
// miss is found, whether its body is cached; a refused flight a waiter
// joins is cached all the same, the waiter being a second sight. A
// refused pinned read (StreamChunk, ChunkTo) opens no flight but notes
// its key, so a read of the key while it streams is a second sight and
// leads the one flight later reads join: a herd on a refused first
// sight synthesizes at most twice.
//
// Immutability contract: the returned slice is the cache's own copy,
// shared by every caller that asks for the same key — it is strictly
// read-only. Callers must not write through it, reslice it beyond its
// length, or append to it in place; mutating it corrupts the body every
// later viewer receives. Writer-form bodies are sealed at their exact
// size (len == cap), so an accidental append reallocates instead of
// scribbling on cached bytes.
func (s *Store) Get(ctx context.Context, key ChunkKey) ([]byte, error) {
	body, _, err := s.get(ctx, key, false, true)
	return body, err
}

// Pull is Get for a caller that keeps the body itself: a cache tier
// above this store. A resident body is a hit, as with Get; a miss
// leads or joins the key's flight, which runs to completion, with
// Get's singleflight and counters, but a flight Pull leads caches
// nothing, so the store holds no second copy of a body the puller
// keeps. A Get that joins that flight is served and admits nothing
// either.
func (s *Store) Pull(ctx context.Context, key ChunkKey) ([]byte, error) {
	body, _, err := s.get(ctx, key, false, false)
	return body, err
}

// get is Get, Pull without admit, and with pin the lookup of a pinned
// read (Store.writeTo). stream is -1, or the size of a pinned miss the
// rule refused, which comes back with no body and opens no flight: the
// caller streams the body itself (Store.stream).
func (s *Store) get(ctx context.Context, key ChunkKey, pin, admit bool) (body []byte, stream int, err error) {
	if err := ctx.Err(); err != nil {
		return nil, -1, err
	}
	h := key.hash()
	sh := s.shards[h&s.mask]
	var n int
	sh.mu.Lock()
	for sized := s.miss != nil; ; sized = true { // a body-form miss is not sized
		if el, ok := sh.entries[key]; ok {
			sh.lru.MoveToFront(el)
			e := el.Value.(*entry)
			e.hit = true
			sh.mu.Unlock()
			s.met.hits.Inc()
			return e.body, -1, nil
		}
		if fl, ok := sh.inflight[key]; ok {
			fl.shared = true
			sh.mu.Unlock()
			s.met.shared.Inc()
			select {
			case <-fl.done:
				return fl.body, -1, fl.err
			case <-ctx.Done():
				return nil, -1, ctx.Err()
			}
		}
		if sized {
			break
		}
		// A writer-form miss: size it outside the lock, then look again,
		// so the rule decides before anything is built or anyone joins.
		sh.mu.Unlock()
		if n, err = s.ws.Size(key); err == nil && n < 0 {
			err = fmt.Errorf("serve: sized synth for %s reports negative length %d", key, n)
		}
		if err != nil {
			s.met.misses.Inc()
			return nil, -1, err
		}
		sh.mu.Lock()
	}
	admitted := s.miss != nil || !admit || sh.admitsLocked(h, int64(n))
	if pin && !admitted {
		sh.mu.Unlock()
		s.met.misses.Inc()
		return nil, n, nil
	}
	fl := &flight{done: make(chan struct{}), resets: sh.resets}
	sh.inflight[key] = fl
	sh.mu.Unlock()

	s.met.misses.Inc()
	if s.miss != nil {
		fl.body, fl.err = s.miss(key)
	} else {
		fl.body, fl.err = s.build(key, n)
	}

	sh.mu.Lock()
	if sh.inflight[key] == fl {
		delete(sh.inflight, key)
	}
	if admit && fl.err == nil && fl.resets == sh.resets && (admitted || fl.shared) {
		s.insertLocked(sh, key, fl.body)
	}
	sh.mu.Unlock()
	close(fl.done)
	return fl.body, -1, fl.err
}

// writerPool reuses the slice-backed writers the writer form hands
// to WriterSynth.Write, keeping the per-miss allocation count at the
// sealed body alone.
var writerPool = sync.Pool{New: func() any { return new(sliceWriter) }}

// sliceWriter adapts an append destination to io.Writer; Write never
// fails. AvailableBuffer lends out the room left, as bytes.Buffer's
// does, so a synthesizer that looks for it builds the body in place.
type sliceWriter struct{ buf []byte }

func (sw *sliceWriter) AvailableBuffer() []byte { return sw.buf[len(sw.buf):] }

func (sw *sliceWriter) Write(p []byte) (int, error) {
	sw.buf = append(sw.buf, p...)
	return len(p), nil
}

// build runs the writer form for a miss of n bytes: one allocation of
// exactly n, filled by the synthesizer's stream, sealed (len == cap)
// when it goes into the cache.
func (s *Store) build(key ChunkKey, n int) ([]byte, error) {
	sw := writerPool.Get().(*sliceWriter)
	sw.buf = make([]byte, 0, n)
	err := s.ws.Write(sw, key)
	body := sw.buf
	sw.buf = nil
	writerPool.Put(sw)
	if err != nil {
		return nil, err
	}
	if len(body) != n {
		return nil, fmt.Errorf("serve: sized synth for %s wrote %d bytes, want %d", key, len(body), n)
	}
	return body[:n:n], nil
}

// insertLocked caches a body, evicting the shard's LRU tail past its
// budget slice, and reports whether the body went in. An existing
// entry wins: bodies are pure functions of the key, so there is nothing
// to replace, and a second LRU element for one key would double-count
// its bytes and take the live map entry with it when evicted. That
// happens whenever a Put lands while a flight for the key is open.
// A body larger than the whole slice is served but never cached
// (keep-zero, matching the player caches' refusal to hold something
// that would immediately evict everything).
func (s *Store) insertLocked(sh *shard, key ChunkKey, body []byte) bool {
	if _, ok := sh.entries[key]; ok {
		return false
	}
	size := int64(len(body))
	if size > sh.budget {
		s.met.uncacheable.Inc()
		return false
	}
	el := sh.lru.PushFront(&entry{key: key, body: body})
	sh.entries[key] = el
	sh.bytes += size
	s.met.bytes.Add(size)
	for sh.bytes > sh.budget {
		tail := sh.lru.Back()
		if tail == nil || tail == el {
			break
		}
		ev := tail.Value.(*entry)
		sh.lru.Remove(tail)
		delete(sh.entries, ev.key)
		sh.noteLocked(!ev.hit)
		sh.bytes -= int64(len(ev.body))
		s.met.bytes.Add(-int64(len(ev.body)))
		s.met.evictions.Inc()
	}
	return true
}

// Reset drops every cached body, returning the store to cold — a
// crashed-and-restarted edge node models its lost cache with this. The
// admission rule's memory goes with them: no key counts as seen, and
// the eviction record starts empty. Flights in progress run to
// completion, orphaned: deregistered, so the next Get of their key
// starts afresh, they hand their waiters the body and cache nothing — a
// miss that spans a crash does not land in the restarted cache.
func (s *Store) Reset() {
	for _, sh := range s.shards {
		sh.mu.Lock()
		dropped := sh.bytes
		sh.entries = make(map[ChunkKey]*list.Element)
		sh.lru.Init()
		sh.bytes = 0
		clear(sh.inflight)
		clear(sh.seen)
		sh.unhit = 0
		sh.resets++
		sh.mu.Unlock()
		s.met.bytes.Add(-dropped)
	}
}

// Put warms the cache with an already-built body for key — the
// replication write path: a cluster owner that just served a body
// hands the same sealed slice to the key's other owners — its own
// resident body, whether it answered in process or over a wire — so a
// warm costs no synthesis and no copy. The body must be immutable and
// is retained as the shared cached copy (a slice previously returned by
// Get or Peek satisfies the contract). An existing entry wins (see
// insertLocked). Reports whether the body went in (false for
// duplicates and for bodies too large to cache).
func (s *Store) Put(key ChunkKey, body []byte) bool {
	sh := s.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return s.insertLocked(sh, key, body)
}

// ChunkLen reports the exact body length the store would serve for the
// addressed chunk without synthesizing it. Only a writer-form store
// (WithWriterSynth) carries a size model; a WithBodySynth store
// returns an error.
func (s *Store) ChunkLen(videoID string, quality, tile, index int, layer bool) (int, error) {
	key := ChunkKey{Video: videoID, Quality: quality, Tile: tile, Index: index, Layer: layer}
	if s.ws.Size == nil {
		return 0, fmt.Errorf("serve: store has no size model for %s", key)
	}
	return s.ws.Size(key)
}

// Peek returns key's resident body and whether there is one. It is a
// look, not a request: it moves nothing in the LRU order and counts
// nothing — no hit, no miss, no gauge. The body is the cache's own
// sealed slice, under Get's immutability contract.
func (s *Store) Peek(key ChunkKey) ([]byte, bool) {
	sh := s.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.entries[key]
	if !ok {
		return nil, false
	}
	return el.Value.(*entry).body, true
}

// Contains reports whether key is resident, moving and counting nothing.
func (s *Store) Contains(key ChunkKey) bool {
	sh := s.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, ok := sh.entries[key]
	return ok
}

// Bytes reports the resident body bytes across all shards.
func (s *Store) Bytes() int64 {
	var n int64
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += sh.bytes
		sh.mu.Unlock()
	}
	return n
}

// Len reports the resident entry count across all shards.
func (s *Store) Len() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}
