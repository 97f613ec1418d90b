package obs

import "sync"

// BufferPool is a sync.Pool of byte blocks of one size — the scratch
// seam of the allocation-light serve path (DESIGN.md "Memory
// discipline"). Borrowers Get a *[]byte, use `(*buf)[:0]` up to its
// capacity, and Put the pointer before returning; the pointer
// indirection keeps Get and Put themselves allocation-free. Ownership is
// strictly scoped: a block must be Put by the same function that
// borrowed it (a dropped Put is an allocation, which the allocation
// budget tests count), and nothing reachable after Put may alias it.
type BufferPool struct {
	pool sync.Pool
	size int
}

// Get returns a pointer to a zero-length block of capacity size,
// recycling a previously Put one when available.
func (p *BufferPool) Get() *[]byte {
	if v := p.pool.Get(); v != nil {
		return v.(*[]byte)
	}
	buf := make([]byte, 0, p.size)
	return &buf
}

// Put recycles a block obtained from Get, and drops any other, so the
// pool only ever holds blocks of its size. The caller must not touch the
// pointer or any slice aliasing it afterwards.
func (p *BufferPool) Put(buf *[]byte) {
	if cap(*buf) != p.size {
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

// BlockPools is a size-classed set of pools: class i holds blocks of
// exactly MinBlockLen<<i bytes.
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
		b[i] = &BufferPool{size: MinBlockLen << i}
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
