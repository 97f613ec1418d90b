package obs

import (
	"strconv"
	"testing"
)

// TestSizedBufferPoolMintsAtMinCap: a pool's miss path hands out a
// block already at its size, and a recycled block comes back empty at
// that same size.
func TestSizedBufferPoolMintsAtMinCap(t *testing.T) {
	p := &BufferPool{size: 512}

	b := p.Get()
	if cap(*b) != 512 || len(*b) != 0 {
		t.Fatalf("minted buffer: len %d cap %d, want 0/512", len(*b), cap(*b))
	}
	*b = append(*b, 1, 2, 3)
	p.Put(b)
	if got := p.Get(); cap(*got) != 512 || len(*got) != 0 {
		t.Fatalf("post-recycle buffer: len %d cap %d, want 0/512", len(*got), cap(*got))
	}
}

// TestBufferPoolDropsOversized: the pool holds its one size only — a
// block that grew (or shrank) is dropped on Put instead of widening, or
// shortening, the resident scratch.
func TestBufferPoolDropsOversized(t *testing.T) {
	p := &BufferPool{size: 512}
	for _, c := range []int{1024, 64} {
		resized := p.Get()
		*resized = make([]byte, 0, c)
		p.Put(resized)
		if again := p.Get(); cap(*again) != 512 {
			t.Fatalf("a %d-byte block recycled: cap %d, want a fresh 512", c, cap(*again))
		}
	}
}

// TestBlockClassBound pins the scratch bound Blocks states: the block
// For(n) hands out holds n (up to MaxBlockLen), is the smallest class
// that does, is under twice n past MinBlockLen, and is never outside
// [MinBlockLen, MaxBlockLen] — an unknown, tiny or absurd length
// included.
func TestBlockClassBound(t *testing.T) {
	const absurd = 1 << (strconv.IntSize - 2) // 1<<62 on 64-bit
	lens := []int{-absurd, -1, 0, 1, 4 << 10}
	for c := MinBlockLen; c <= MaxBlockLen; c <<= 1 {
		lens = append(lens, c-1, c, c+1, c+c/2)
	}
	lens = append(lens, 300_000, 64<<20, absurd)
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
	p := &BufferPool{size: 64}
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
