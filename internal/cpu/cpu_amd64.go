package cpu

// CPUID.(7,0) feature bits the kernels need.
const (
	AVX512F    = 1 << 16 // EBX
	AVX512DQ   = 1 << 17 // EBX: VPMULLQ
	VPCLMULQDQ = 1 << 10 // ECX: VPCLMULQDQ on ZMM registers
)

// ZMM reports whether the OS saves the opmask and ZMM state across
// context switches and CPUID.(7,0) sets every bit of ebxBits in EBX and
// of ecxBits in ECX.
func ZMM(ebxBits, ecxBits uint32) bool {
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

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
