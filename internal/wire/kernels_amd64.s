//go:build !purego

#include "textflag.h"

// AVX + F16C kernels of the gradient byte path; the contract is in
// kernels_amd64.go and kernels.go. All loads and stores are unaligned
// (VMOVUPS or memory operands of VEX instructions, which never fault on
// alignment). Register use is the same in every kernel: DI dst, SI src,
// AX elements done, CX n-8 (the last index a full vector may start at).

// func hasAVXF16C() bool
TEXT ·hasAVXF16C(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x38000000, CX // OSXSAVE (27), AVX (28), F16C (29)
	CMPL CX, $0x38000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX // XCR0: SSE (1) and AVX (2) state enabled by the OS
	CMPL AX, $6
	JNE  no
	MOVB $1, ret+0(FP)
	RET
no:
	MOVB $0, ret+0(FP)
	RET

// func encodeHalfAVX(dst *byte, src *float32, n int) int
TEXT ·encodeHalfAVX(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX
	SUBQ $8, CX
	JLT  done
loop:
	VMOVUPS   (SI)(AX*4), Y0
	VCMPPS    $3, Y0, Y0, Y1 // unordered with itself: the NaN lanes
	VMOVMSKPS Y1, DX
	TESTL     DX, DX
	JNZ       done
	VCVTPS2PH $0, Y0, (DI)(AX*2) // $0: round to nearest even, ignore MXCSR.RC
	ADDQ      $8, AX
	CMPQ      AX, CX
	JLE       loop
done:
	VZEROUPPER
	MOVQ AX, ret+24(FP)
	RET

// func decodeHalfAVX(dst *float32, src *byte, n int) int
TEXT ·decodeHalfAVX(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX
	SUBQ $8, CX
	JLT  done
loop:
	VCVTPH2PS (SI)(AX*2), Y0
	VCMPPS    $3, Y0, Y0, Y1
	VMOVMSKPS Y1, DX
	TESTL     DX, DX
	JNZ       done
	VMOVUPS   Y0, (DI)(AX*4)
	ADDQ      $8, AX
	CMPQ      AX, CX
	JLE       loop
done:
	VZEROUPPER
	MOVQ AX, ret+24(FP)
	RET

// func decodeHalfAddAVX(dst *float32, src *byte, n int) int
TEXT ·decodeHalfAddAVX(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX
	SUBQ $8, CX
	JLT  done
loop:
	VCVTPH2PS (SI)(AX*2), Y0
	VADDPS    (DI)(AX*4), Y0, Y0
	VCMPPS    $3, Y0, Y0, Y1 // a NaN sum: NaN operand or Inf-Inf
	VMOVMSKPS Y1, DX
	TESTL     DX, DX
	JNZ       done
	VMOVUPS   Y0, (DI)(AX*4)
	ADDQ      $8, AX
	CMPQ      AX, CX
	JLE       loop
done:
	VZEROUPPER
	MOVQ AX, ret+24(FP)
	RET

// func addFloat32sAVX(dst *float32, src *byte, n int) int
TEXT ·addFloat32sAVX(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX
	SUBQ $8, CX
	JLT  done
loop:
	VMOVUPS   (SI)(AX*4), Y0
	VADDPS    (DI)(AX*4), Y0, Y0
	VCMPPS    $3, Y0, Y0, Y1
	VMOVMSKPS Y1, DX
	TESTL     DX, DX
	JNZ       done
	VMOVUPS   Y0, (DI)(AX*4)
	ADDQ      $8, AX
	CMPQ      AX, CX
	JLE       loop
done:
	VZEROUPPER
	MOVQ AX, ret+24(FP)
	RET

// func scaleFloat32sAVX(dst *float32, f float32, n int) int
TEXT ·scaleFloat32sAVX(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	VBROADCASTSS f+8(FP), Y2
	MOVQ         n+16(FP), CX
	XORQ         AX, AX
	SUBQ         $8, CX
	JLT          done
loop:
	VMULPS    (DI)(AX*4), Y2, Y0
	VCMPPS    $3, Y0, Y0, Y1
	VMOVMSKPS Y1, DX
	TESTL     DX, DX
	JNZ       done
	VMOVUPS   Y0, (DI)(AX*4)
	ADDQ      $8, AX
	CMPQ      AX, CX
	JLE       loop
done:
	VZEROUPPER
	MOVQ AX, ret+24(FP)
	RET
