package media

import (
	"bytes"
	"testing"
)

// The tests in this file hold fillKernel — fillVector over whole
// 256-byte blocks, fillLoop over the rest — to fillLoop alone. They run
// wherever the CPU has the kernel, -race included: vectorFill keeps
// -race builds off the kernel, but nothing stops a test calling it.

// kernelGuard is how many bytes on each side of the destination must
// come through fillKernel untouched.
const kernelGuard = 64

// checkKernel fills n bytes at byte offset off of a guarded buffer from
// seed's counter, and requires fillLoop's bytes and final counter and
// every byte outside the destination as it was.
func checkKernel(t testing.TB, seed uint64, n, off int) {
	t.Helper()
	x := newSynthStream(seed).x
	want := make([]byte, n)
	wantX := fillLoop(x, want)
	buf := make([]byte, kernelGuard+off+n+kernelGuard)
	for i := range buf {
		buf[i] = byte(i*131 + 7)
	}
	before := bytes.Clone(buf)
	dst := buf[kernelGuard+off : kernelGuard+off+n]
	if gotX := fillKernel(x, dst); gotX != wantX {
		t.Fatalf("seed %#x, n=%d, offset %d: counter ends at %#x, fillLoop's at %#x", seed, n, off, gotX, wantX)
	}
	if !bytes.Equal(dst, want) {
		t.Fatalf("seed %#x, n=%d, offset %d: bytes differ from fillLoop's", seed, n, off)
	}
	if !bytes.Equal(buf[:kernelGuard+off], before[:kernelGuard+off]) || !bytes.Equal(buf[kernelGuard+off+n:], before[kernelGuard+off+n:]) {
		t.Fatalf("seed %#x, n=%d, offset %d: a byte outside the destination changed", seed, n, off)
	}
}

func skipWithoutKernel(t testing.TB) {
	if !avx512dq() {
		t.Skip("this CPU has no AVX-512 kernel to compare")
	}
}

// TestSynthKernelMatchesLoop: every length up to four blocks, then a
// 44 KB and a 140 KB body (the serving sizes), each at a destination
// offset that cycles through a cache line.
func TestSynthKernelMatchesLoop(t *testing.T) {
	skipWithoutKernel(t)
	lens := []int{44 << 10, 140_000}
	for n := 0; n <= 1024; n++ {
		lens = append(lens, n)
	}
	for i, n := range lens {
		checkKernel(t, uint64(i)*0x9e3779b97f4a7c15^0x5eed, n, i%64)
	}
}

// FuzzSynthKernelMatchesLoop draws the seed, a length up to 300 KB and
// a destination offset in one cache line.
func FuzzSynthKernelMatchesLoop(f *testing.F) {
	skipWithoutKernel(f)
	f.Add(uint64(0), uint32(256), uint8(0))
	f.Add(uint64(1), uint32(257), uint8(1))
	f.Add(^uint64(0), uint32(44<<10), uint8(63))
	f.Add(uint64(1)<<63, uint32(140_000), uint8(8))
	f.Fuzz(func(t *testing.T, seed uint64, n uint32, off uint8) {
		checkKernel(t, seed, int(n%(300<<10+1)), int(off%64))
	})
}
