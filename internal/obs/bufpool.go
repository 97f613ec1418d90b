package obs

import "sync"

// BufferPool is a sync.Pool of byte buffers with hit/miss accounting —
// the scratch-buffer seam of the allocation-light serve path (DESIGN.md
// "Memory discipline"). Borrowers Get a *[]byte, build into
// `(*buf)[:0]`, store the grown slice back through the pointer, and Put
// the pointer before returning; the pointer indirection keeps Get and
// Put themselves allocation-free. Ownership is strictly scoped: a
// buffer must be Put by the same function that borrowed it (the
// bufownership checker of internal/vet enforces this), and nothing
// reachable after Put may alias it.
//
// A nil *BufferPool is the disabled pool: Get hands out fresh buffers
// and Put drops them, so callers never need a nil check.
type BufferPool struct {
	pool   sync.Pool
	minCap int
	maxCap int
	hits   *Counter
	misses *Counter
}

// NewSizedBufferPool builds a pool registering <prefix>.pool_hits and
// <prefix>.pool_misses on r (a nil registry disables the counters, not
// the pool). Buffers whose capacity grew past maxCap are dropped on
// Put so one oversized body cannot pin memory forever; maxCap <= 0
// means unlimited. A pool miss mints a buffer with minCap capacity up
// front instead of growing a fresh one on first use. Setting maxCap ==
// minCap pins the pool to exactly one block size — what each class of
// Blocks is, so resident scratch is blocks, never bodies.
func NewSizedBufferPool(r *Registry, prefix string, minCap, maxCap int) *BufferPool {
	return &BufferPool{
		minCap: minCap,
		maxCap: maxCap,
		hits:   r.Counter(prefix + ".pool_hits"),
		misses: r.Counter(prefix + ".pool_misses"),
	}
}

// Get returns a pointer to a zero-length buffer, recycling a previously
// Put one when available (a pool hit) and minting a fresh pointer
// otherwise (a miss).
func (p *BufferPool) Get() *[]byte {
	if p == nil {
		return new([]byte)
	}
	if v := p.pool.Get(); v != nil {
		p.hits.Inc()
		return v.(*[]byte)
	}
	p.misses.Inc()
	if p.minCap > 0 {
		buf := make([]byte, 0, p.minCap)
		return &buf
	}
	return new([]byte)
}

// Put recycles a buffer obtained from Get. The caller must not touch
// the pointer or any slice aliasing it afterwards.
func (p *BufferPool) Put(buf *[]byte) {
	if p == nil || buf == nil {
		return
	}
	if p.maxCap > 0 && cap(*buf) > p.maxCap {
		return
	}
	*buf = (*buf)[:0]
	p.pool.Put(buf)
}

// The block classes: scratch a body moves through comes in power-of-two
// sizes from MinBlockLen (32 KiB) to MaxBlockLen (256 KiB).
const (
	MinBlockLen  = 32 << 10
	blockClasses = 4
	MaxBlockLen  = MinBlockLen << (blockClasses - 1)
)

// BlockPools is a size-classed set of pinned pools: class i holds blocks
// of exactly MinBlockLen<<i bytes.
type BlockPools [blockClasses]*BufferPool

// Blocks is the process's one set of block pools, shared by the
// cluster's relay and the streamed synthesis. Each borrower's scratch is
// the class of the body it carries: at least MinBlockLen, less than
// twice the body, and at most MaxBlockLen — so resident scratch is
// bounded by concurrent borrowers times MaxBlockLen, never by body sizes.
var Blocks = newBlockPools()

func newBlockPools() *BlockPools {
	var b BlockPools
	for i := range b {
		b[i] = NewSizedBufferPool(nil, "", MinBlockLen<<i, MinBlockLen<<i)
	}
	return &b
}

// For returns the pool of the smallest class that holds n bytes. A
// length at or under MinBlockLen, or unknown (negative), gets the
// smallest class; one past MaxBlockLen gets the largest, so a block is
// never sized by an outside number. Borrow with For(n).Get() through a
// local and repay with Put on that same local.
func (b *BlockPools) For(n int) *BufferPool {
	i := 0
	for i < len(b)-1 && MinBlockLen<<i < n {
		i++
	}
	return b[i]
}
