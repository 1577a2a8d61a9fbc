//go:build amd64 && !purego

#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func ammLanes(z, a, b, m *uint64, k0 uint64, n int)
//
// Eight almost-Montgomery products at once: lane l of z becomes
// a_l * b_l / R mod m, in [0, 2m), for R = 2^(52n) > 4m and a_l, b_l
// in [0, 2m). a, b and z hold n vectors of eight 52-bit limbs each,
// limb j of lane l at word 8j+l; m holds the modulus' n limbs once,
// broadcast to every lane by the .BCST forms; k0 = -m^-1 mod 2^52.
// Per limb b_i the loop adds a*b_i and q*m into the accumulator z
// (q = z_0 * k0 mod 2^52, the factor that clears its low limb) and
// shifts z down one limb in the same pass. A limb grows by at most four
// terms below 2^52 per pass, so after n passes it is below 4n*2^52, which
// is below 2^61 exactly when n < 128 (lanes.go's maxLaneLimbs = 127), and
// the limbs are normalised to 52 bits once, after the last pass. n >= 2;
// z must not overlap a or b. No branch depends on the data.
TEXT ·ammLanes(SB), NOSPLIT, $0-48
	MOVQ z+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ m+24(FP), R8
	MOVQ k0+32(FP), AX
	MOVQ n+40(FP), CX
	VPBROADCASTQ AX, Z31
	MOVQ $0xfffffffffffff, AX
	VPBROADCASTQ AX, Z30

	// z = 0
	VPXORQ Z0, Z0, Z0
	MOVQ DI, R13
	MOVQ CX, R14

zero:
	VMOVDQU64 Z0, (R13)
	ADDQ $64, R13
	DECQ R14
	JNZ  zero

	MOVQ DX, R10
	MOVQ CX, R9

outer:
	// Limb 0: z_0 += lo(a_0*b_i), q = lo(z_0*k0), z_0 += lo(m_0*q); its
	// carry goes to z_1, and the cleared limb is shifted out.
	VMOVDQU64   (R10), Z1
	VMOVDQU64   (DI), Z2
	VPMADD52LUQ (SI), Z1, Z2
	VPXORQ      Z3, Z3, Z3
	VPMADD52LUQ Z31, Z2, Z3
	VPMADD52LUQ.BCST (R8), Z3, Z2
	VPSRLQ      $52, Z2, Z2
	VPADDQ      64(DI), Z2, Z2
	VMOVDQU64   Z2, 64(DI)

	LEAQ 64(SI), R11
	LEAQ 8(R8), R12
	LEAQ 64(DI), R13
	LEAQ -1(CX), R14

inner:
	// z_{j-1} = z_j + lo(a_j*b_i) + hi(a_{j-1}*b_i) + lo(m_j*q) + hi(m_{j-1}*q)
	VMOVDQU64   (R13), Z4
	VPMADD52LUQ (R11), Z1, Z4
	VPMADD52HUQ -64(R11), Z1, Z4
	VPMADD52LUQ.BCST (R12), Z3, Z4
	VPMADD52HUQ.BCST -8(R12), Z3, Z4
	VMOVDQU64   Z4, -64(R13)
	ADDQ $64, R11
	ADDQ $8, R12
	ADDQ $64, R13
	DECQ R14
	JNZ  inner

	// z_{n-1} = hi(a_{n-1}*b_i) + hi(m_{n-1}*q)
	VPXORQ      Z4, Z4, Z4
	VPMADD52HUQ -64(R11), Z1, Z4
	VPMADD52HUQ.BCST -8(R12), Z3, Z4
	VMOVDQU64   Z4, -64(R13)

	ADDQ $64, R10
	DECQ R9
	JNZ  outer

	// Normalise: carry each limb's bits above 52 into the next.
	VPXORQ Z2, Z2, Z2
	MOVQ DI, R13
	MOVQ CX, R14

norm:
	VPADDQ    (R13), Z2, Z4
	VPSRLQ    $52, Z4, Z2
	VPANDQ    Z30, Z4, Z4
	VMOVDQU64 Z4, (R13)
	ADDQ $64, R13
	DECQ R14
	JNZ  norm

	VZEROUPPER
	RET
