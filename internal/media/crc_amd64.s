#include "textflag.h"

// Fold constants for the reflected IEEE polynomial P = 0x104c11db7.
// Folding a 128-bit lane by d bits multiplies its low word by k_lo and
// its high word by k_hi, where k_lo = reflect(x^(d+32) mod P)≪1 and
// k_hi = reflect(x^(d−32) mod P)≪1. The same formula gives hash/crc32's
// constants: r2r1 at d = 512, r4r3 at d = 128, and r5 is reflect(x^64
// mod P)≪1; k2048 folds an accumulator across one 256-byte iteration.
DATA k2048<>+0(SB)/8, $0x11542778a
DATA k2048<>+8(SB)/8, $0x1322d1430
DATA r2r1<>+0(SB)/8, $0x154442bd4
DATA r2r1<>+8(SB)/8, $0x1c6e41596
DATA r4r3<>+0(SB)/8, $0x1751997d0
DATA r4r3<>+8(SB)/8, $0x0ccaa009e
DATA rupoly<>+0(SB)/8, $0x1db710641
DATA rupoly<>+8(SB)/8, $0x1f7011641
DATA r5<>+0(SB)/8, $0x163cd6124

GLOBL k2048<>(SB), RODATA|NOPTR, $16
GLOBL r2r1<>(SB), RODATA|NOPTR, $16
GLOBL r4r3<>(SB), RODATA|NOPTR, $16
GLOBL rupoly<>(SB), RODATA|NOPTR, $16
GLOBL r5<>(SB), RODATA|NOPTR, $8

// func crcVector(crc uint32, p *byte, n int) uint32
//
// Returns crc32.Update(crc, crc32.IEEETable, p[:n]); n is a positive
// multiple of 256. Four ZMM accumulators hold the first 256 bytes, and
// each iteration folds every one of their sixteen lanes 2048 bits
// forward onto the next 256 bytes, so four independent carry-less
// multiply chains are in flight at once. The accumulators then fold
// into one by 512 bits, its four lanes into one by 128, and that lane
// reduces to 32 bits as in hash/crc32's ieeeCLMUL.
TEXT ·crcVector(SB), NOSPLIT, $0-28
	MOVL crc+0(FP), AX
	MOVQ p+8(FP), SI
	MOVQ n+16(FP), CX
	NOTL AX

	VMOVDQU64 (SI), Z0
	VMOVDQU64 64(SI), Z1
	VMOVDQU64 128(SI), Z2
	VMOVDQU64 192(SI), Z3
	VMOVD     AX, X4
	VPXORQ    Z4, Z0, Z0
	ADDQ      $256, SI
	SUBQ      $256, CX
	JZ        fold

	VBROADCASTI32X4 k2048<>(SB), Z8

loop:
	VPCLMULQDQ $0x00, Z8, Z0, Z4
	VPCLMULQDQ $0x00, Z8, Z1, Z5
	VPCLMULQDQ $0x00, Z8, Z2, Z6
	VPCLMULQDQ $0x00, Z8, Z3, Z7
	VPCLMULQDQ $0x11, Z8, Z0, Z0
	VPCLMULQDQ $0x11, Z8, Z1, Z1
	VPCLMULQDQ $0x11, Z8, Z2, Z2
	VPCLMULQDQ $0x11, Z8, Z3, Z3
	VPTERNLOGQ $0x96, (SI), Z4, Z0
	VPTERNLOGQ $0x96, 64(SI), Z5, Z1
	VPTERNLOGQ $0x96, 128(SI), Z6, Z2
	VPTERNLOGQ $0x96, 192(SI), Z7, Z3
	ADDQ       $256, SI
	SUBQ       $256, CX
	JNZ        loop

fold:
	// Z3 ^= Z2 ^= Z1 ^= Z0, each folded by 512 bits on the way.
	VBROADCASTI32X4 r2r1<>(SB), Z8
	VPCLMULQDQ      $0x00, Z8, Z0, Z4
	VPCLMULQDQ      $0x11, Z8, Z0, Z0
	VPTERNLOGQ      $0x96, Z4, Z0, Z1
	VPCLMULQDQ      $0x00, Z8, Z1, Z4
	VPCLMULQDQ      $0x11, Z8, Z1, Z1
	VPTERNLOGQ      $0x96, Z4, Z1, Z2
	VPCLMULQDQ      $0x00, Z8, Z2, Z4
	VPCLMULQDQ      $0x11, Z8, Z2, Z2
	VPTERNLOGQ      $0x96, Z4, Z2, Z3

	// X1..X4: Z3's lanes, first to last.
	VMOVDQA       X3, X1
	VEXTRACTI32X4 $1, Z3, X2
	VEXTRACTI32X4 $3, Z3, X4
	VEXTRACTI32X4 $2, Z3, X3
	VZEROUPPER

	// X1 = X1·x^128 ^ X2, then X3, then X4.
	MOVOU     r4r3<>(SB), X0
	MOVOA     X1, X5
	PCLMULQDQ $0, X0, X1
	PCLMULQDQ $0x11, X0, X5
	PXOR      X5, X1
	PXOR      X2, X1
	MOVOA     X1, X5
	PCLMULQDQ $0, X0, X1
	PCLMULQDQ $0x11, X0, X5
	PXOR      X5, X1
	PXOR      X3, X1
	MOVOA     X1, X5
	PCLMULQDQ $0, X0, X1
	PCLMULQDQ $0x11, X0, X5
	PXOR      X5, X1
	PXOR      X4, X1

	// 128 bits to 64 with r4, to 32 with r5, then Barrett reduction.
	PCMPEQB   X3, X3
	PCLMULQDQ $1, X1, X0
	PSRLDQ    $8, X1
	PXOR      X0, X1
	MOVOA     X1, X2
	MOVQ      r5<>(SB), X0
	PSRLQ     $32, X3
	PSRLDQ    $4, X2
	PAND      X3, X1
	PCLMULQDQ $0, X0, X1
	PXOR      X2, X1
	MOVOU     rupoly<>(SB), X0
	MOVOA     X1, X2
	PAND      X3, X1
	PCLMULQDQ $0x10, X0, X1
	PAND      X3, X1
	PCLMULQDQ $0, X0, X1
	PXOR      X2, X1
	PEXTRD    $1, X1, AX

	NOTL AX
	MOVL AX, ret+24(FP)
	RET
