package media

import (
	"bytes"
	"fmt"
	"hash/crc32"
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

// checkCRCKernel takes crcKernel over n bytes at byte offset off from
// crc and requires crc32.Update's value. The bytes before and after the
// span differ from it, so a kernel that reads past either end shows.
func checkCRCKernel(t testing.TB, crc uint32, n, off int) {
	t.Helper()
	buf := SyntheticPayload(uint64(n)<<8|uint64(off), kernelGuard+off+n+kernelGuard)
	p := buf[kernelGuard+off : kernelGuard+off+n]
	if got, want := crcKernel(crc, p), crc32.Update(crc, crc32.IEEETable, p); got != want {
		t.Fatalf("crc %#08x, n=%d, offset %d: kernel gives %#08x, crc32.Update %#08x", crc, n, off, got, want)
	}
}

func skipWithoutCRCKernel(t testing.TB) {
	if !avx512clmul() {
		t.Skip("this CPU has no VPCLMULQDQ kernel to compare")
	}
}

// TestCRCKernelMatchesStd: every length up to four blocks, then a
// 44 KB, a 133,000 B and a 140,000 B payload, at an offset that cycles
// through a cache line, from a zero and a non-zero CRC.
func TestCRCKernelMatchesStd(t *testing.T) {
	skipWithoutCRCKernel(t)
	lens := []int{44 << 10, 133_000, 140_000}
	for n := 0; n <= 1024; n++ {
		lens = append(lens, n)
	}
	for i, n := range lens {
		for _, crc := range []uint32{0, 0xdeadbeef} {
			checkCRCKernel(t, crc, n, i%64)
		}
	}
}

// FuzzCRCKernelMatchesStd draws the initial CRC, a length up to 300 KB
// and an offset in one cache line.
func FuzzCRCKernelMatchesStd(f *testing.F) {
	skipWithoutCRCKernel(f)
	f.Add(uint32(0), uint32(256), uint8(0))
	f.Add(uint32(1), uint32(257), uint8(1))
	f.Add(^uint32(0), uint32(44<<10), uint8(63))
	f.Add(uint32(0x80000000), uint32(133_000), uint8(8))
	f.Fuzz(func(t *testing.T, crc, n uint32, off uint8) {
		checkCRCKernel(t, crc, int(n%(300<<10+1)), int(off%64))
	})
}

// crcForm is one way to take a payload's CRC.
type crcForm struct {
	name string
	sum  func(crc uint32, p []byte) uint32
}

// crcForms are crc32.Update and, where the CPU has it, crcKernel.
func crcForms() []crcForm {
	forms := []crcForm{{"std", func(crc uint32, p []byte) uint32 { return crc32.Update(crc, crc32.IEEETable, p) }}}
	if avx512clmul() {
		forms = append(forms, crcForm{"kernel", crcKernel})
	}
	return forms
}

// TestCRCZeroAlloc: neither checksum allocates, so sealing and
// verifying a segment adds nothing to a request's allocations.
func TestCRCZeroAlloc(t *testing.T) {
	p := SyntheticPayload(1, 133_000)
	for _, f := range crcForms() {
		if allocs := testing.AllocsPerRun(100, func() { f.sum(0, p) }); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", f.name, allocs)
		}
	}
}

// crcSink keeps BenchmarkCRC's checksums live.
var crcSink uint32

// BenchmarkCRC times crcForms over a 4 KB, a 44 KB and a 133,000 B
// payload: E34's micro-benchmark.
func BenchmarkCRC(b *testing.B) {
	for _, n := range []int{4 << 10, 44 << 10, 133_000} {
		p := SyntheticPayload(uint64(n), n)
		for _, f := range crcForms() {
			b.Run(fmt.Sprintf("%s/%d", f.name, n), func(b *testing.B) {
				b.SetBytes(int64(n))
				for i := 0; i < b.N; i++ {
					crcSink = f.sum(0, p)
				}
			})
		}
	}
}
