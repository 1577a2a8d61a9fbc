//go:build amd64 && !purego

package paillier

// cpuid and xgetbv are the instructions; ammLanes is the kernel
// (lanes_amd64.s).
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

//go:noescape
func ammLanes(z, a, b, m *uint64, k0 uint64, n int)

// laneCPU reports whether this CPU runs the lane kernel: CPUID has
// AVX512F and AVX512IFMA, and the OS saves the opmask and ZMM state
// (XCR0 bits 1, 2 and 5–7, read by XGETBV once CPUID's OSXSAVE says
// it may run).
var laneCPU = func() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave = 1 << 27
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 {
		return false
	}
	const zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if xcr0, _ := xgetbv(); xcr0&zmmState != zmmState {
		return false
	}
	const avx512f, avx512ifma = 1 << 16, 1 << 21
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx512f != 0 && ebx&avx512ifma != 0
}()
