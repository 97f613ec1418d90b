package media

import "sperke/internal/obs"

// vectorFill selects the AVX-512 kernel (synth_amd64.s), once, at init.
// The race detector cannot see the kernel's stores, so a -race build
// keeps the Go loop.
var vectorFill = !obs.RaceEnabled && avx512dq()

// CPUID.(7,0) feature bits the kernels need.
const (
	avx512F    = 1 << 16 // EBX
	avx512DQ   = 1 << 17 // EBX: VPMULLQ
	vpclmulqdq = 1 << 10 // ECX: VPCLMULQDQ on ZMM registers
)

// avx512dq reports whether the CPU has AVX512F and AVX512DQ (VPMULLQ)
// and the OS saves the opmask and ZMM state across context switches.
func avx512dq() bool { return zmmFeatures(avx512F|avx512DQ, 0) }

// zmmFeatures reports whether the OS saves the opmask and ZMM state
// across context switches and CPUID.(7,0) sets every bit of ebxBits in
// EBX and of ecxBits in ECX.
func zmmFeatures(ebxBits, ecxBits uint32) bool {
	const (
		osxsave  = 1 << 27 // CPUID.1:ECX
		zmmState = 0xe6    // XCR0: SSE, AVX, opmask, ZMM_Hi256, Hi16_ZMM
	)
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&zmmState != zmmState {
		return false
	}
	_, ebx, ecx, _ := cpuid(7, 0)
	return ebx&ebxBits == ebxBits && ecx&ecxBits == ecxBits
}

// fillVector writes the n bytes after counter x to p, n a positive
// multiple of 256: fillLoop's output, eight words per instruction.
//
//go:noescape
func fillVector(x uint64, p *byte, n int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
