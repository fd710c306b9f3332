//go:build amd64 && !purego

#include "textflag.h"

// median5RowsAVX2 — the vector median-of-5 of the wave gather. Lane i
// reads a = rows[i], b = rows[stride+i], c = rows[2·stride+i],
// d = rows[3·stride+i], e = rows[4·stride+i] and stores to out[i] the
// same min/max network median5 runs, four lanes per iteration:
//
//	f = max(min(a,b), min(c,d))
//	g = min(max(a,b), max(c,d))
//	m = max(min(e,f), min(max(e,f), g))
//
// VMINPD/VMAXPD agree with a min/max by value on every lane that holds
// no NaN, except for which zero they return, so m is the median by
// value; a nonzero m has only one bit pattern, so it is median5's
// answer. A lane that holds a NaN input or whose m is ±0 is flagged
// instead: out[i] gets all bits set (a NaN), the call returns true, and
// the Go caller recomputes the lane with median5, whose own rule fixes
// the NaN result and the sign of a zero.
//
// len(out) must be a nonzero multiple of 4, at most stride, and rows
// must hold 5·stride values.

// func median5RowsAVX2(rows []float64, stride int, out []float64) bool
TEXT ·median5RowsAVX2(SB), NOSPLIT, $0-57
	MOVQ rows_base+0(FP), SI      // row 0
	MOVQ stride+24(FP), R8
	SHLQ $3, R8                   // row stride in bytes
	MOVQ out_base+32(FP), DI
	MOVQ out_len+40(FP), CX
	SHRQ $2, CX                   // lane quads
	LEAQ (SI)(R8*2), R9           // row 2
	LEAQ (R9)(R8*2), R10          // row 4
	VXORPD Y15, Y15, Y15          // 0.0
	VXORPD Y14, Y14, Y14          // flags of every quad, OR-ed

loop:
	VMOVUPD (SI), Y0              // a
	VMOVUPD (SI)(R8*1), Y1        // b
	VMOVUPD (R9), Y2              // c
	VMOVUPD (R9)(R8*1), Y3        // d
	VMOVUPD (R10), Y4             // e

	// Flag lanes with a NaN input: unordered(a,b) | unordered(c,d) |
	// unordered(e,e).
	VCMPPD $3, Y1, Y0, Y5
	VCMPPD $3, Y3, Y2, Y6
	VORPD  Y6, Y5, Y5
	VCMPPD $3, Y4, Y4, Y6
	VORPD  Y6, Y5, Y5

	VMINPD Y1, Y0, Y6             // min(a,b)
	VMAXPD Y1, Y0, Y7             // max(a,b)
	VMINPD Y3, Y2, Y8             // min(c,d)
	VMAXPD Y3, Y2, Y9             // max(c,d)
	VMAXPD Y8, Y6, Y6             // f
	VMINPD Y9, Y7, Y7             // g
	VMINPD Y6, Y4, Y8             // min(e,f)
	VMAXPD Y6, Y4, Y9             // max(e,f)
	VMINPD Y7, Y9, Y9             // min(max(e,f), g)
	VMAXPD Y9, Y8, Y8             // m

	// Flag the lanes whose median is ±0 too, and mark every flagged
	// lane.
	VCMPPD $0, Y15, Y8, Y6        // m == 0
	VORPD  Y6, Y5, Y5
	VORPD  Y5, Y8, Y8
	VORPD  Y5, Y14, Y14
	VMOVUPD Y8, (DI)

	ADDQ $32, SI
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, DI
	DECQ CX
	JNZ  loop

	VMOVMSKPD Y14, AX
	TESTL     AX, AX
	SETNE     ret+56(FP)
	VZEROUPPER
	RET
