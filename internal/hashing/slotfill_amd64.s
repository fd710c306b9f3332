//go:build amd64 && !purego

#include "textflag.h"

// mixFillSlotsAVX2 — the AVX2 kernel of the mix family's batch slot
// fill. Four keys per iteration, tables in the inner loop; must stay
// bit-identical to mixFillSlotsBatchGo (the simd differential tests and
// the -race CI step compare them on random shapes). The contract it
// preserves, per key i and table e:
//
//	h      = Mix64(key ^ bucketSeeds[e])
//	bucket = hi64(h * R)                      (Lemire fastRange)
//	off    = e*R + bucket                     (row-major cell index)
//	sign   = Mix64(key*signSeeds[e] + bucketSeeds[e])&1 == 1 ? +1.0 : -1.0
//	slots[i*K+e] = {off int64, sign float64}  (16 bytes, Off first)
//
// AVX2 has no 64-bit low multiply (VPMULLQ is AVX-512), so Mix64's two
// multiplies and key*signSeed are synthesized from three VPMULUDQ
// 32×32→64 products each: lo64(a·b) = alo·blo + ((ahi·blo + alo·bhi)
// << 32). fastRange exploits R < 2^32 (the Go dispatcher guarantees
// it): hi64(h·R) = (hhi·R + (hlo·R >> 32)) >> 32 with two VPMULUDQ —
// exact, since hhi·R + (hlo·R >> 32) < 2^64. The ±1.0 sign needs no
// blend: ±1.0 differ only in the IEEE sign bit, so
// sign = 0x3FF0000000000000 | (((s & 1) ^ 1) << 63).
//
// len(keys) must be a nonzero multiple of 4 and K = len(bseeds) ≥ 1.

// MUL64C: v = lo64(v * c) for a constant broadcast pair (c, chi=c>>32):
// t1 = vlo·clo, t2 = vhi·clo, t3 = vlo·chi, v = t1 + ((t2+t3) << 32).
#define MUL64C(v, c, chi, t1, t2, t3) \
	VPMULUDQ c, v, t1    \
	VPSRLQ   $32, v, t2  \
	VPMULUDQ c, t2, t2   \
	VPMULUDQ chi, v, t3  \
	VPADDQ   t3, t2, t2  \
	VPSLLQ   $32, t2, t2 \
	VPADDQ   t2, t1, v

// MIX64: v = Mix64(v). Clobbers t1,t2,t3; uses the global constant
// registers Y15/Y14 (first multiplier) and Y13/Y12 (second).
#define MIX64(v, t1, t2, t3) \
	VPSRLQ $30, v, t1 \
	VPXOR  t1, v, v   \
	MUL64C(v, Y15, Y14, t1, t2, t3) \
	VPSRLQ $27, v, t1 \
	VPXOR  t1, v, v   \
	MUL64C(v, Y13, Y12, t1, t2, t3) \
	VPSRLQ $31, v, t1 \
	VPXOR  t1, v, v

DATA mixconsts<>+0(SB)/8, $0xbf58476d1ce4e5b9  // Mix64 multiplier 1
DATA mixconsts<>+8(SB)/8, $0x00000000bf58476d  // ... high 32 bits
DATA mixconsts<>+16(SB)/8, $0x94d049bb133111eb // Mix64 multiplier 2
DATA mixconsts<>+24(SB)/8, $0x0000000094d049bb // ... high 32 bits
DATA mixconsts<>+32(SB)/8, $0x3ff0000000000000 // float64(+1.0) bits
DATA mixconsts<>+40(SB)/8, $0x0000000000000001 // qword 1
GLOBL mixconsts<>(SB), RODATA|NOPTR, $48

// func mixFillSlotsAVX2(keys []uint64, slots []Slot, bseeds, sseeds []uint64, rng uint64)
TEXT ·mixFillSlotsAVX2(SB), NOSPLIT, $0-104
	MOVQ keys_base+0(FP), SI
	MOVQ keys_len+8(FP), CX
	SHRQ $2, CX                   // key quads
	JZ   done
	MOVQ slots_base+24(FP), R12   // slot cursor of the quad's first key
	MOVQ bseeds_base+48(FP), R8
	MOVQ bseeds_len+56(FP), R10   // K
	MOVQ sseeds_base+72(FP), R9
	MOVQ R10, R11
	SHLQ $4, R11                  // K*16 = one key's slot stride in bytes

	// Constant registers for the whole call.
	MOVQ         rng+96(FP), AX
	MOVQ         AX, X11
	VPBROADCASTQ X11, Y11             // R (both fastRange multiplier and off stride)
	VPBROADCASTQ mixconsts<>+0(SB), Y15
	VPBROADCASTQ mixconsts<>+8(SB), Y14
	VPBROADCASTQ mixconsts<>+16(SB), Y13
	VPBROADCASTQ mixconsts<>+24(SB), Y12
	VPBROADCASTQ mixconsts<>+32(SB), Y10 // +1.0
	VPBROADCASTQ mixconsts<>+40(SB), Y9  // 1

quadloop:
	VMOVDQU (SI), Y8              // 4 keys
	VPXOR   Y7, Y7, Y7            // off accumulator e*R, starts 0
	MOVQ    R12, R13              // store cursor, keys 0/1 of the quad
	LEAQ    (R12)(R11*2), R14     // store cursor, keys 2/3 of the quad
	XORQ    R15, R15              // table index e

tableloop:
	// Bucket hash: h = Mix64(key ^ bs[e]); off = e*R + hi64(h*R).
	VPBROADCASTQ (R8)(R15*8), Y0  // bs
	VPXOR        Y0, Y8, Y1
	MIX64(Y1, Y2, Y3, Y4)
	VPSRLQ   $32, Y1, Y2
	VPMULUDQ Y11, Y2, Y2          // hhi·R
	VPMULUDQ Y11, Y1, Y3          // hlo·R
	VPSRLQ   $32, Y3, Y3
	VPADDQ   Y3, Y2, Y2
	VPSRLQ   $32, Y2, Y2          // bucket
	VPADDQ   Y7, Y2, Y2           // off = e*R + bucket

	// Sign hash: s = Mix64(key*ss[e] + bs[e]).
	VPBROADCASTQ (R9)(R15*8), Y1  // ss
	VPSRLQ       $32, Y1, Y3      // ss high halves
	VPMULUDQ     Y1, Y8, Y4       // klo·sslo
	VPSRLQ       $32, Y8, Y5
	VPMULUDQ     Y1, Y5, Y5       // khi·sslo
	VPMULUDQ     Y3, Y8, Y6       // klo·sshi
	VPADDQ       Y6, Y5, Y5
	VPSLLQ       $32, Y5, Y5
	VPADDQ       Y5, Y4, Y4       // key*ss
	VPADDQ       Y0, Y4, Y4       // + bs
	MIX64(Y4, Y1, Y3, Y5)
	VPAND  Y9, Y4, Y4             // parity bit
	VPXOR  Y9, Y4, Y4             // 0 if odd (+1.0), 1 if even (−1.0)
	VPSLLQ $63, Y4, Y4
	VPOR   Y10, Y4, Y4            // ±1.0

	// Interleave {off, sign} per key and scatter the four 16-byte slots
	// (stride K*16 between consecutive keys' slot rows).
	VPUNPCKLQDQ  Y4, Y2, Y1       // [off0 s0 | off2 s2]
	VPUNPCKHQDQ  Y4, Y2, Y3       // [off1 s1 | off3 s3]
	VMOVDQU      X1, (R13)
	VMOVDQU      X3, (R13)(R11*1)
	VEXTRACTI128 $1, Y1, X1
	VEXTRACTI128 $1, Y3, X3
	VMOVDQU      X1, (R14)
	VMOVDQU      X3, (R14)(R11*1)

	VPADDQ Y11, Y7, Y7            // e*R += R
	ADDQ   $16, R13
	ADDQ   $16, R14
	INCQ   R15
	CMPQ   R15, R10
	JLT    tableloop

	ADDQ $32, SI
	LEAQ (R12)(R11*4), R12        // next quad's slot rows
	DECQ CX
	JNZ  quadloop

done:
	VZEROUPPER
	RET

// mixFillSlotsAVX512 — the AVX-512 kernel of the same slot fill: eight
// keys per iteration in ZMM registers, tables in the inner loop, and
// the contract above unchanged. AVX-512DQ's VPMULLQ is a native 64-bit
// low multiply, so Mix64's two multiplies and key*signSeed are one
// instruction each instead of three VPMULUDQ partials; fastRange and
// the ±1.0 sign are built exactly as in the AVX2 kernel (R < 2^32).
//
// len(keys) must be a nonzero multiple of 8 and K = len(bseeds) ≥ 1.
// Requires AVX512F+DQ with the OS saving the opmask/ZMM state (the Go
// dispatcher checks CPUID and XCR0).

// MIX64Z: v = Mix64(v) on eight lanes. Clobbers t; uses the constant
// registers Z31 (first multiplier) and Z30 (second).
#define MIX64Z(v, t) \
	VPSRLQ  $30, v, t \
	VPXORQ  t, v, v   \
	VPMULLQ Z31, v, v \
	VPSRLQ  $27, v, t \
	VPXORQ  t, v, v   \
	VPMULLQ Z30, v, v \
	VPSRLQ  $31, v, t \
	VPXORQ  t, v, v

// func mixFillSlotsAVX512(keys []uint64, slots []Slot, bseeds, sseeds []uint64, rng uint64)
TEXT ·mixFillSlotsAVX512(SB), NOSPLIT, $0-104
	MOVQ keys_base+0(FP), SI
	MOVQ keys_len+8(FP), CX
	SHRQ $3, CX                   // key octets
	JZ   done512
	MOVQ slots_base+24(FP), R12   // slot cursor of the octet's first key
	MOVQ bseeds_base+48(FP), R8
	MOVQ bseeds_len+56(FP), R10   // K
	MOVQ sseeds_base+72(FP), R9
	MOVQ R10, R11
	SHLQ $4, R11                  // K*16 = one key's slot stride in bytes
	LEAQ (R11)(R11*2), BX         // 3 strides

	// Constant registers for the whole call.
	MOVQ         rng+96(FP), AX
	VPBROADCASTQ AX, Z29                   // R
	VPBROADCASTQ mixconsts<>+0(SB), Z31    // Mix64 multiplier 1
	VPBROADCASTQ mixconsts<>+16(SB), Z30   // Mix64 multiplier 2
	VPBROADCASTQ mixconsts<>+32(SB), Z27   // +1.0
	VPBROADCASTQ mixconsts<>+40(SB), Z28   // 1

octloop:
	VMOVDQU64 (SI), Z8            // 8 keys
	VPXORQ    Z7, Z7, Z7          // off accumulator e*R, starts 0
	MOVQ      R12, R13            // store cursor, keys 0..3 of the octet
	LEAQ      (R12)(R11*4), R14   // store cursor, keys 4..7
	XORQ      R15, R15            // table index e

tableloop512:
	// Bucket hash: h = Mix64(key ^ bs[e]); off = e*R + hi64(h*R).
	VPBROADCASTQ (R8)(R15*8), Z0  // bs
	VPXORQ       Z0, Z8, Z1
	MIX64Z(Z1, Z2)
	VPSRLQ   $32, Z1, Z2
	VPMULUDQ Z29, Z2, Z2          // hhi·R
	VPMULUDQ Z29, Z1, Z3          // hlo·R
	VPSRLQ   $32, Z3, Z3
	VPADDQ   Z3, Z2, Z2
	VPSRLQ   $32, Z2, Z2          // bucket
	VPADDQ   Z7, Z2, Z2           // off = e*R + bucket

	// Sign hash: s = Mix64(key*ss[e] + bs[e]).
	VPBROADCASTQ (R9)(R15*8), Z1  // ss
	VPMULLQ      Z1, Z8, Z4       // key*ss
	VPADDQ       Z0, Z4, Z4       // + bs
	MIX64Z(Z4, Z5)
	VPANDQ Z28, Z4, Z4            // parity bit
	VPXORQ Z28, Z4, Z4            // 0 if odd (+1.0), 1 if even (−1.0)
	VPSLLQ $63, Z4, Z4
	VPORQ  Z27, Z4, Z4            // ±1.0

	// Interleave {off, sign} per key and store the eight 16-byte slots
	// (stride K*16 between consecutive keys' slot rows).
	VPUNPCKLQDQ   Z4, Z2, Z1      // [off0 s0 | off2 s2 | off4 s4 | off6 s6]
	VPUNPCKHQDQ   Z4, Z2, Z3      // [off1 s1 | off3 s3 | off5 s5 | off7 s7]
	VMOVDQU       X1, (R13)
	VMOVDQU       X3, (R13)(R11*1)
	VEXTRACTI32X4 $1, Z1, (R13)(R11*2)
	VEXTRACTI32X4 $1, Z3, (R13)(BX*1)
	VEXTRACTI32X4 $2, Z1, (R14)
	VEXTRACTI32X4 $2, Z3, (R14)(R11*1)
	VEXTRACTI32X4 $3, Z1, (R14)(R11*2)
	VEXTRACTI32X4 $3, Z3, (R14)(BX*1)

	VPADDQ Z29, Z7, Z7            // e*R += R
	ADDQ   $16, R13
	ADDQ   $16, R14
	INCQ   R15
	CMPQ   R15, R10
	JLT    tableloop512

	ADDQ $64, SI
	LEAQ (R12)(R11*8), R12        // next octet's slot rows
	DECQ CX
	JNZ  octloop

done512:
	VZEROUPPER
	RET
