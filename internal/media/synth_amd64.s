#include "textflag.h"

// lanes<> is k·synthGamma (mod 2⁶⁴) for k = 1..8: the offsets of one
// ZMM block's eight words from the counter before them.
DATA lanes<>+0x00(SB)/8, $0x9e3779b97f4a7c15
DATA lanes<>+0x08(SB)/8, $0x3c6ef372fe94f82a
DATA lanes<>+0x10(SB)/8, $0xdaa66d2c7ddf743f
DATA lanes<>+0x18(SB)/8, $0x78dde6e5fd29f054
DATA lanes<>+0x20(SB)/8, $0x1715609f7c746c69
DATA lanes<>+0x28(SB)/8, $0xb54cda58fbbee87e
DATA lanes<>+0x30(SB)/8, $0x538454127b096493
DATA lanes<>+0x38(SB)/8, $0xf1bbcdcbfa53e0a8
GLOBL lanes<>(SB), RODATA|NOPTR, $64

// func fillVector(x uint64, p *byte, n int)
//
// Writes words 1..n/8 after counter x to p, each mix64(x + i·synthGamma)
// little-endian; n is a positive multiple of 256. Each iteration runs
// four independent blocks of eight lanes, so one block's VPMULLQ
// latency hides behind the others'.
TEXT ·fillVector(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), AX
	MOVQ p+8(FP), DI
	MOVQ n+16(FP), CX

	MOVQ $0xbf58476d1ce4e5b9, BX
	VPBROADCASTQ BX, Z18          // mix64's first multiplier
	MOVQ $0x94d049bb133111eb, BX
	VPBROADCASTQ BX, Z19          // mix64's second multiplier
	VPBROADCASTQ lanes<>+0x38(SB), Z16 // 8γ: one block's advance
	VPSLLQ       $2, Z16, Z17     // 32γ: one iteration's advance

	// Z0..Z3: the counters of the iteration's four blocks.
	VPBROADCASTQ AX, Z0
	VPADDQ       lanes<>(SB), Z0, Z0
	VPADDQ       Z16, Z0, Z1
	VPADDQ       Z16, Z1, Z2
	VPADDQ       Z16, Z2, Z3

loop:
	// z ^= z >> 30
	VPSRLQ $30, Z0, Z8
	VPSRLQ $30, Z1, Z9
	VPSRLQ $30, Z2, Z10
	VPSRLQ $30, Z3, Z11
	VPXORQ Z8, Z0, Z4
	VPXORQ Z9, Z1, Z5
	VPXORQ Z10, Z2, Z6
	VPXORQ Z11, Z3, Z7

	// z *= 0xbf58476d1ce4e5b9
	VPMULLQ Z18, Z4, Z4
	VPMULLQ Z18, Z5, Z5
	VPMULLQ Z18, Z6, Z6
	VPMULLQ Z18, Z7, Z7

	// z ^= z >> 27
	VPSRLQ $27, Z4, Z8
	VPSRLQ $27, Z5, Z9
	VPSRLQ $27, Z6, Z10
	VPSRLQ $27, Z7, Z11
	VPXORQ Z8, Z4, Z4
	VPXORQ Z9, Z5, Z5
	VPXORQ Z10, Z6, Z6
	VPXORQ Z11, Z7, Z7

	// z *= 0x94d049bb133111eb
	VPMULLQ Z19, Z4, Z4
	VPMULLQ Z19, Z5, Z5
	VPMULLQ Z19, Z6, Z6
	VPMULLQ Z19, Z7, Z7

	// z ^= z >> 31
	VPSRLQ $31, Z4, Z8
	VPSRLQ $31, Z5, Z9
	VPSRLQ $31, Z6, Z10
	VPSRLQ $31, Z7, Z11
	VPXORQ Z8, Z4, Z4
	VPXORQ Z9, Z5, Z5
	VPXORQ Z10, Z6, Z6
	VPXORQ Z11, Z7, Z7

	VMOVDQU64 Z4, (DI)
	VMOVDQU64 Z5, 64(DI)
	VMOVDQU64 Z6, 128(DI)
	VMOVDQU64 Z7, 192(DI)

	VPADDQ Z17, Z0, Z0
	VPADDQ Z17, Z1, Z1
	VPADDQ Z17, Z2, Z2
	VPADDQ Z17, Z3, Z3
	ADDQ   $256, DI
	SUBQ   $256, CX
	JNZ    loop

	VZEROUPPER
	RET
