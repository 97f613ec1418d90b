package obs

import "testing"

func TestBufferPoolRecyclesAndCounts(t *testing.T) {
	r := NewRegistry()
	p := NewSizedBufferPool(r, "test", 0, 1<<10)

	b := p.Get()
	if len(*b) != 0 {
		t.Fatalf("fresh buffer has len %d", len(*b))
	}
	if r.Counter("test.pool_misses").Value() != 1 {
		t.Fatalf("first Get: misses = %d, want 1", r.Counter("test.pool_misses").Value())
	}

	// sync.Pool may shed a Put (GC, or the race detector's deliberate
	// random drops), so recycling is asserted as "a hit within a few
	// rounds", not on the first round.
	for i := 0; i < 32 && r.Counter("test.pool_hits").Value() == 0; i++ {
		*b = append((*b)[:0], 1, 2, 3)
		p.Put(b)
		b = p.Get()
		if len(*b) != 0 {
			t.Fatalf("recycled buffer not trimmed: len %d", len(*b))
		}
	}
	if r.Counter("test.pool_hits").Value() == 0 {
		t.Fatal("no pool hit in 32 Put/Get rounds")
	}
}

func TestBufferPoolDropsOversized(t *testing.T) {
	r := NewRegistry()
	p := NewSizedBufferPool(r, "test", 0, 64)
	b := p.Get()
	*b = make([]byte, 0, 128) // grew past maxCap
	p.Put(b)
	p.Get()
	if got := r.Counter("test.pool_misses").Value(); got != 2 {
		t.Fatalf("oversized buffer was recycled: misses = %d, want 2", got)
	}
}

func TestBufferPoolNilSafe(t *testing.T) {
	var p *BufferPool
	b := p.Get()
	if b == nil || len(*b) != 0 {
		t.Fatal("nil pool must mint fresh buffers")
	}
	p.Put(b)   // must not panic
	p.Put(nil) // must not panic
	var q = NewSizedBufferPool(nil, "x", 0, 0)
	q.Put(q.Get()) // nil registry: counters no-op, pool still works
}

// TestSizedBufferPoolMintsAtMinCap: a sized pool's miss path hands out
// a buffer already at block capacity, and maxCap == minCap pins the
// pool to exactly that block size — an overgrown buffer is dropped on
// Put instead of widening the resident scratch.
func TestSizedBufferPoolMintsAtMinCap(t *testing.T) {
	r := NewRegistry()
	p := NewSizedBufferPool(r, "blk", 512, 512)

	b := p.Get()
	if cap(*b) != 512 || len(*b) != 0 {
		t.Fatalf("minted buffer: len %d cap %d, want 0/512", len(*b), cap(*b))
	}
	p.Put(b)
	if got := p.Get(); cap(*got) != 512 {
		t.Fatalf("post-recycle buffer: cap %d, want 512", cap(*got))
	}

	grown := p.Get()
	*grown = make([]byte, 0, 1024)
	p.Put(grown)
	again := p.Get()
	if cap(*again) != 512 {
		t.Fatalf("overgrown buffer recycled: cap %d, want fresh 512", cap(*again))
	}
}

// TestBlockClassBound pins the scratch bound Blocks states: the block
// For(n) hands out holds n (up to MaxBlockLen), is the smallest class
// that does, is under twice n past MinBlockLen, and is never outside
// [MinBlockLen, MaxBlockLen] — an unknown, tiny or absurd length
// included.
func TestBlockClassBound(t *testing.T) {
	lens := []int{-1 << 62, -1, 0, 1, 4 << 10}
	for c := MinBlockLen; c <= MaxBlockLen; c <<= 1 {
		lens = append(lens, c-1, c, c+1, c+c/2)
	}
	lens = append(lens, 300_000, 64<<20, 1<<62)
	for _, n := range lens {
		pool := Blocks.For(n)
		b := pool.Get()
		c := cap(*b)
		pool.Put(b)
		if c < MinBlockLen || c > MaxBlockLen {
			t.Fatalf("For(%d): a %d-byte block, outside [%d, %d]", n, c, MinBlockLen, MaxBlockLen)
		}
		if n <= MaxBlockLen && c < n {
			t.Fatalf("For(%d): a %d-byte block does not hold it", n, c)
		}
		if n > MinBlockLen && c/2 >= n || n <= MinBlockLen && c != MinBlockLen {
			t.Fatalf("For(%d): a %d-byte block, want under twice the length or the smallest class", n, c)
		}
		if n > MaxBlockLen && c != MaxBlockLen {
			t.Fatalf("For(%d): a %d-byte block, want the largest class", n, c)
		}
	}
}

// TestBufferPoolGetPutZeroAlloc pins the reason the pool traffics in
// *[]byte: the Get/Put round trip itself must not allocate (interface
// boxing of a plain []byte would). Shed Puts (GC, race-detector drops)
// can force occasional refills, so the assertion is "average under
// one" — boxing would read >= 1 every round trip.
func TestBufferPoolGetPutZeroAlloc(t *testing.T) {
	if RaceEnabled {
		t.Skip("race-mode sync.Pool drops Puts at random; the allocs/op pin holds only without -race")
	}
	p := NewSizedBufferPool(nil, "x", 0, 0)
	seed := p.Get()
	*seed = make([]byte, 0, 64)
	p.Put(seed)
	allocs := testing.AllocsPerRun(100, func() {
		b := p.Get()
		*b = append(*b, 0xaa)
		p.Put(b)
	})
	if allocs >= 1 {
		t.Fatalf("Get/Put round trip: %v allocs/op, want 0 per op", allocs)
	}
}
