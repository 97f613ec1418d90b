#include "textflag.h"
#include "go_asm.h"

// markConst<> holds the thresholds of borders.tileOf, each broadcast to
// a ZMM register once per call.
DATA markConst<>+0x00(SB)/8, $0x3e112e0be826d695 // guard, 1e-9
DATA markConst<>+0x08(SB)/8, $0xbe112e0be826d695 // -guard
DATA markConst<>+0x10(SB)/8, $0x7fffffffffffffff // |x| mask
DATA markConst<>+0x18(SB)/8, $0x3d719799812dea11 // unit tolerance, 1e-12
DATA markConst<>+0x20(SB)/8, $0x3eb0c6f7a0b5ed8d // polar cap, 1e-6
DATA markConst<>+0x28(SB)/8, $0x3ff0000000000000 // 1.0
DATA markConst<>+0x30(SB)/8, $1                  // int64 1
GLOBL markConst<>(SB), RODATA|NOPTR, $56

// Predicates of VCMPPD, all quiet: a NaN compares false.
#define LT_OQ $0x11
#define LE_OQ $0x12
#define GE_OQ $0x1d
#define GT_OQ $0x1e

// func markLattice(vp *Viewport, r *rotation, handed *[markGroups]uint8) (tiles uint64)
//
// Each of the 37 groups builds eight lattice directions, rotates them
// by roll, pitch and yaw in the multiplies and adds of direction (no
// fused multiply-add, so the bits are the loop's), and classifies them
// as borders.tileOf does, against every border the bisection could
// compare: the tile id counts the row borders a lane lies below (cols
// each) and the column starts it lies past within its half of the
// frame. A lane is handed back when it fails the unit or polar test or
// when the least |margin| it had to a compared border is not above
// guard. Nothing branches on a lane's value; the loops run over the
// grid's borders.
//
// Registers: Z16–Z21 the rotation; Z22–Z30 constants; Z0–Z2 a group's
// unrotated direction, Z8/Z6/Z9 its X/Y/Z rotated; Z12 the lanes' tile
// ids; Z31 their least |margin|; Z15 the tile mask. K1 the group's
// lanes, K2 those that pass the unit and polar tests, K4/K5 those in the
// first/second half of the frame, K6/K7 scratch.
TEXT ·markLattice(SB), NOSPLIT, $0-32
	MOVQ vp+0(FP), DI
	MOVQ r+8(FP), AX
	MOVQ handed+16(FP), SI

	VBROADCASTSD rotation_sinRoll(AX), Z16
	VBROADCASTSD rotation_cosRoll(AX), Z17
	VBROADCASTSD rotation_sinPitch(AX), Z18
	VBROADCASTSD rotation_cosPitch(AX), Z19
	VBROADCASTSD rotation_sinYaw(AX), Z20
	VBROADCASTSD rotation_cosYaw(AX), Z21

	VBROADCASTSD markConst<>+0x00(SB), Z22 // guard
	VBROADCASTSD markConst<>+0x08(SB), Z23 // -guard
	VPBROADCASTQ markConst<>+0x10(SB), Z24 // |x| mask
	VBROADCASTSD markConst<>+0x18(SB), Z25 // 1e-12
	VBROADCASTSD markConst<>+0x20(SB), Z26 // 1e-6
	VBROADCASTSD markConst<>+0x28(SB), Z27 // 1.0
	VPBROADCASTQ markConst<>+0x30(SB), Z28 // int64 1

	MOVQ         (Viewport_b+borders_cols)(DI), R13 // cols
	VPBROADCASTQ R13, Z29                           // a row border passed adds cols
	MOVQ         R13, DX
	SHRQ         $1, DX
	VPBROADCASTQ DX, Z30                            // the second half starts at cols/2
	INCQ         DX                                 // its first compared start
	LEAQ         1(R13), R11
	SHRQ         $1, R11                            // the first half ends at (cols+1)/2
	MOVQ         (Viewport_b+borders_rows)(DI), R12
	DECQ         R12                                // row borders: rows-1
	LEAQ         (Viewport_b+borders_sinRow+8)(DI), BX
	LEAQ         (Viewport_b+borders_sinCol)(DI), R10

	VPXORQ Z15, Z15, Z15
	XORQ   R8, R8 // group

group:
	CMPQ R8, $(2*17)
	JAE  column

	// Groups 0–33: lattice row i = g/2, lanes j = 8·(g%2)…+7.
	MOVQ         R8, AX
	SHRQ         $1, AX
	VBROADCASTSD Viewport_sinX(DI)(AX*8), Z3
	VBROADCASTSD Viewport_cosX(DI)(AX*8), Z4
	MOVQ         R8, AX
	ANDQ         $1, AX
	SHLQ         $6, AX
	VMOVUPD      Viewport_cosY(DI)(AX*1), Z5
	VMOVUPD      Viewport_sinY(DI)(AX*1), Z1
	VMULPD       Z3, Z5, Z0 // X = cosY[j]·sinX[i]
	VMULPD       Z4, Z5, Z2 // Z = cosY[j]·cosX[i]
	MOVL         $0xff, R9
	JMP          classify

column:
	// Groups 34–36: lattice column j = 16, lanes i = 8·(g−34)…, one
	// lane in the last, whose masked load reads nothing past sinX[16]
	// and cosX[16].
	MOVL         $0xff, R9
	CMPQ         R8, $(2*17+2)
	JNE          load
	MOVL         $1, R9

load:
	KMOVW        R9, K1
	LEAQ         -(2*17)(R8), AX
	SHLQ         $6, AX
	VMOVUPD.Z    Viewport_sinX(DI)(AX*1), K1, Z3
	VMOVUPD.Z    Viewport_cosX(DI)(AX*1), K1, Z4
	VBROADCASTSD (Viewport_cosY+16*8)(DI), Z5
	VBROADCASTSD (Viewport_sinY+16*8)(DI), Z1
	VMULPD       Z5, Z3, Z0
	VMULPD       Z5, Z4, Z2

classify:
	KMOVW R9, K1

	// rotZ: X1 = X·cr − Y·sr, Y1 = X·sr + Y·cr.
	VMULPD Z17, Z0, Z3
	VMULPD Z16, Z1, Z4
	VSUBPD Z4, Z3, Z3
	VMULPD Z16, Z0, Z5
	VMULPD Z17, Z1, Z4
	VADDPD Z4, Z5, Z5
	// rotX: Y2 = Y1·cp + Z·sp, Z2 = Z·cp − Y1·sp.
	VMULPD Z19, Z5, Z6
	VMULPD Z18, Z2, Z4
	VADDPD Z4, Z6, Z6
	VMULPD Z19, Z2, Z7
	VMULPD Z18, Z5, Z4
	VSUBPD Z4, Z7, Z7
	// rotY: X3 = X1·cy + Z2·sy, Z3 = Z2·cy − X1·sy.
	VMULPD Z21, Z3, Z8
	VMULPD Z20, Z7, Z4
	VADDPD Z4, Z8, Z8
	VMULPD Z21, Z7, Z9
	VMULPD Z20, Z3, Z4
	VSUBPD Z4, Z9, Z9

	// K2: |ρ² + Y² − 1| ≤ 1e-12 and ρ² = X² + Z² ≥ 1e-6.
	VMULPD Z8, Z8, Z10
	VMULPD Z9, Z9, Z4
	VADDPD Z4, Z10, Z10
	VMULPD Z6, Z6, Z4
	VADDPD Z4, Z10, Z4
	VSUBPD Z27, Z4, Z4
	VPANDQ Z24, Z4, Z4
	VCMPPD LE_OQ, Z25, Z4, K1, K2
	VCMPPD GE_OQ, Z26, Z10, K2, K2

	VPXORQ  Z12, Z12, Z12
	VMOVAPD Z27, Z31

	// Rows: the id gains cols for each border with Y − sinRow[r] < −guard.
	MOVQ  R12, CX
	MOVQ  BX, AX
	TESTQ CX, CX
	JZ    columns

row:
	VBROADCASTSD (AX), Z13
	VSUBPD       Z13, Z6, Z13
	VCMPPD       LT_OQ, Z23, Z13, K6
	VPADDQ       Z29, Z12, K6, Z12
	VPANDQ       Z24, Z13, Z13
	VMINPD       Z13, Z31, Z31
	ADDQ         $8, AX
	DECQ         CX
	JNZ          row

columns:
	CMPQ R13, $1
	JLE  done

	// side(0) = X·cosCol[0] − Z·sinCol[0] picks the half: K4 past the
	// seam by less than a half turn, K5 the rest, which start at cols/2.
	VBROADCASTSD (borders_cosCol-borders_sinCol)(R10), Z13
	VMULPD       Z13, Z8, Z13
	VBROADCASTSD (R10), Z14
	VMULPD       Z14, Z9, Z14
	VSUBPD       Z14, Z13, Z13
	VCMPPD       GT_OQ, Z22, Z13, K4
	VCMPPD       LT_OQ, Z23, Z13, K5
	VPADDQ       Z30, Z12, K5, Z12
	VPANDQ       Z24, Z13, Z13
	VMINPD       Z13, Z31, Z31

	// Within a half the id gains one for each column start the lane is
	// past, side(k) > guard; only the half's own starts are compared.
	MOVQ $1, CX

first:
	CMPQ         CX, R11
	JAE          second0
	VBROADCASTSD (borders_cosCol-borders_sinCol)(R10)(CX*8), Z13
	VMULPD       Z13, Z8, Z13
	VBROADCASTSD (R10)(CX*8), Z14
	VMULPD       Z14, Z9, Z14
	VSUBPD       Z14, Z13, Z13
	VCMPPD       GT_OQ, Z22, Z13, K4, K6
	VPADDQ       Z28, Z12, K6, Z12
	VPANDQ       Z24, Z13, Z13
	VMINPD       Z13, Z31, K4, Z31
	INCQ         CX
	JMP          first

second0:
	MOVQ DX, CX

second:
	CMPQ         CX, R13
	JAE          done
	VBROADCASTSD (borders_cosCol-borders_sinCol)(R10)(CX*8), Z13
	VMULPD       Z13, Z8, Z13
	VBROADCASTSD (R10)(CX*8), Z14
	VMULPD       Z14, Z9, Z14
	VSUBPD       Z14, Z13, Z13
	VCMPPD       GT_OQ, Z22, Z13, K5, K6
	VPADDQ       Z28, Z12, K6, Z12
	VPANDQ       Z24, Z13, Z13
	VMINPD       Z13, Z31, K5, Z31
	INCQ         CX
	JMP          second

done:
	// K6: the lanes classified, whose tile bit joins the mask; K7: the
	// group's other lanes, handed back.
	VCMPPD  GT_OQ, Z22, Z31, K2, K6
	KANDNW  K1, K6, K7
	VPSLLVQ Z12, Z28, Z13
	VPORQ   Z13, Z15, K6, Z15
	KMOVW   K7, AX
	MOVB    AX, (SI)(R8*1)

	INCQ R8
	CMPQ R8, $(2*17+3)
	JB   group

	// OR the eight lanes of the mask together.
	VEXTRACTI64X4 $1, Z15, Y0
	VPOR          Y0, Y15, Y0
	VEXTRACTI128  $1, Y0, X1
	VPOR          X1, X0, X0
	VPSHUFD       $0x4e, X0, X1
	VPOR          X1, X0, X0
	MOVQ          X0, AX
	MOVQ          AX, tiles+24(FP)
	VZEROUPPER
	RET
