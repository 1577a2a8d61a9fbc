package paillier

import (
	"encoding/binary"
	"math/big"
	"math/bits"
	"sync"
	"sync/atomic"
)

// This file drives the eight-lane Montgomery kernel (ammLanes, in
// lanes_amd64.s): x_l^e_l mod m for eight bases x_l and an exponent of
// each lane's own. DecryptBatch raises every ciphertext of a run to one
// subgroup order a modulo d^2, ScalarMulBatch every cell to its own
// alpha modulo n^2, and the lane comb (lanecomb.go) every nonce base to
// its own s (DESIGN.md §10). A number is n limbs of 52 bits; a lane
// vector stores limb j of lane l at word laneWidth*j + l, so that one
// ZMM register holds one limb of all eight lanes.

// laneKernel is whether the lane paths run on a CPU that has the
// kernel: DecryptBatch, ScalarMulBatch and the full nonce comb of every
// table built while it is set. Tests clear it (SetLaneKernel) to hold
// the lane paths to the scalar ones on the same keys.
var laneKernel atomic.Bool

func init() { laneKernel.Store(true) }

// SetLaneKernel switches this process's lane paths on or off and
// reports whether they ran before the call (on a CPU without the
// kernel, never). It is the seam for tests that compare the lane paths
// with the scalar ones bit for bit: off, every batch call takes the
// scalar code, and every nonce table built from then on is an fbexp
// comb, as on a CPU without the kernel. Tables built before keep their
// kind.
func SetLaneKernel(on bool) (ran bool) { return laneKernel.Swap(on) && laneCPU }

// lanesOn reports whether the lane paths may run: the CPU has the
// kernel and the seam is set.
func lanesOn() bool { return laneCPU && laneKernel.Load() }

const (
	// laneWidth is the kernel's lane count: eight 64-bit lanes of a
	// 512-bit register.
	laneWidth = 8
	limbBits  = 52
	limbMask  = 1<<limbBits - 1
	// maxLaneLimbs keeps the kernel's unnormalised limbs below 2^61:
	// each of its n passes adds at most four terms below 2^52 to a limb,
	// so a limb stays below 4n*2^52, which is below 2^61 exactly when
	// n < 128. A 2048-bit key's n^2 is 79 limbs, its primes' squares 40.
	maxLaneLimbs = 127
	// laneWindow is big.Int.Exp's window: the same schedule of
	// squarings and table multiplications, the same table index per
	// step.
	laneWindow = 4
)

// laneModulus is an odd modulus m with the kernel's constants, built
// once per CRT prime (newCRTPrime). R = 2^(52n) > 4m, so products of
// operands below 2m stay below 2m and none needs a final subtraction.
type laneModulus struct {
	m     *big.Int
	n     int      // limbs per number
	limbs []uint64 // m's limbs, one word each: the kernel broadcasts them
	k0    uint64   // -m^-1 mod 2^52
	rr    []uint64 // R^2 mod m in every lane: multiplying by it enters Montgomery form
	rOne  []uint64 // R mod m in every lane: 1 in Montgomery form
	unit  []uint64 // 1 in every lane: multiplying by it leaves Montgomery form

	// scratch pools the working memory of the modulus's runs
	// (*laneScratch), so that a run on the request path allocates its
	// results and nothing else.
	scratch sync.Pool
}

// laneScratchVectors is the lane vectors of a laneScratch: exp's 16
// window entries, accumulator, spare and gathered entry.
const laneScratchVectors = 1<<laneWindow + 3

// laneScratch is one run's working memory: laneScratchVectors lane
// vectors and a byte buffer for toLimbs and fromLimbs.
type laneScratch struct {
	v   []uint64
	buf []byte
}

// vector returns the i-th lane vector of s.
func (s *laneScratch) vector(i, n int) []uint64 {
	w := laneWidth * n
	return s.v[i*w:][:w]
}

// getScratch takes a laneScratch from the modulus's pool, or makes one;
// the caller gives it back with lm.scratch.Put. Its contents are
// whatever the last run left.
func (lm *laneModulus) getScratch() *laneScratch {
	if s, ok := lm.scratch.Get().(*laneScratch); ok {
		return s
	}
	return &laneScratch{v: make([]uint64, laneScratchVectors*laneWidth*lm.n), buf: lm.bytes()}
}

// newLaneModulus prepares m for the kernel, or returns nil when the CPU
// has no kernel, m is even (Montgomery reduction needs an odd modulus)
// or m is below 64 bits or too wide for the kernel's limb bound.
func newLaneModulus(m *big.Int) *laneModulus {
	if !laneCPU || m.Bit(0) == 0 || m.BitLen() < 64 {
		return nil
	}
	n := (m.BitLen() + 2 + limbBits - 1) / limbBits
	if n > maxLaneLimbs {
		return nil
	}
	lm := &laneModulus{m: new(big.Int).Set(m), n: n, limbs: make([]uint64, n)}
	buf := lm.bytes()
	toLimbs(lm.limbs, 1, n, m, buf)
	// m^-1 mod 2^64 by Newton's iteration: each step doubles the
	// correct low bits, from 3 (an odd m0 is its own inverse mod 8).
	m0 := lm.limbs[0]
	inv := m0
	for range 5 {
		inv *= 2 - m0*inv
	}
	lm.k0 = -inv & limbMask
	r := new(big.Int).Lsh(one, uint(limbBits*n))
	lm.rOne = lm.broadcast(new(big.Int).Mod(r, m), buf)
	lm.rr = lm.broadcast(r.Mod(r.Mul(r, r), m), buf)
	lm.unit = lm.broadcast(one, buf)
	return lm
}

// bytes returns a scratch buffer for toLimbs and fromLimbs: 8 bytes
// past the 6.5 bytes per limb, so each limb reads one whole word.
func (lm *laneModulus) bytes() []byte { return make([]byte, 7*lm.n+8) }

// broadcast returns x < R as a lane vector with x in every lane.
func (lm *laneModulus) broadcast(x *big.Int, buf []byte) []uint64 {
	v := make([]uint64, laneWidth*lm.n)
	toLimbs(v, laneWidth, lm.n, x, buf)
	for j := 0; j < len(v); j += laneWidth {
		for l := 1; l < laneWidth; l++ {
			v[j+l] = v[j]
		}
	}
	return v
}

// toLimbs stores the n limbs of x < 2^(52n) at dst[0], dst[stride],
// ...; buf comes from bytes.
func toLimbs(dst []uint64, stride, n int, x *big.Int, buf []byte) {
	x.FillBytes(buf)
	end := len(buf)
	for j := 0; j < n; j++ {
		off := limbBits * j
		k := end - off/8
		dst[j*stride] = binary.BigEndian.Uint64(buf[k-8:k]) >> (off % 8) & limbMask
	}
}

// fromLimbs sets z to the number whose n limbs are src[0], src[stride],
// ..., each below 2^52.
func fromLimbs(z *big.Int, src []uint64, stride, n int, buf []byte) *big.Int {
	clear(buf)
	end := len(buf)
	for j := 0; j < n; j++ {
		off := limbBits * j
		k := end - off/8
		w := binary.BigEndian.Uint64(buf[k-8:k]) | src[j*stride]<<(off%8)
		binary.BigEndian.PutUint64(buf[k-8:k], w)
	}
	return z.SetBytes(buf)
}

// amm is the kernel on lane vectors: z = a*b/R mod m in every lane.
func (lm *laneModulus) amm(z, a, b []uint64) {
	ammLanes(&z[0], &a[0], &b[0], &lm.limbs[0], lm.k0, lm.n)
}

// exp returns xs[l]^es[l] mod m for every base (at most laneWidth of
// them, each non-negative; es as long as xs, each >= 0). It runs
// big.Int.Exp's Montgomery schedule on all lanes at once: a table of
// x^0..x^15 in every lane, then per 4-bit window, from the top window of
// the longest exponent down, four squarings (but before the first
// window) and one multiplication by each lane's entry for its own
// window, gathered from its table; a lane's windows above its own
// exponent are zero and multiply by x^0. Where every lane's window is
// the same, as in DecryptBatch's runs, the entry is used in place. The
// table index is a window of a lane's exponent, and nothing else depends
// on the exponents or the bases. Lanes past len(xs) hold the base 0 and
// are discarded.
func (lm *laneModulus) exp(xs, es []*big.Int) []*big.Int {
	s := lm.getScratch()
	defer lm.scratch.Put(s)
	entry := func(i uint) []uint64 { return s.vector(int(i), lm.n) }
	z, zz := s.vector(1<<laneWindow, lm.n), s.vector(1<<laneWindow+1, lm.n)
	gathered := s.vector(1<<laneWindow+2, lm.n)

	buf := s.buf
	var x big.Int
	windows := 0
	clear(zz)
	for l, xl := range xs {
		toLimbs(zz[l:], laneWidth, lm.n, x.Mod(xl, lm.m), buf)
		windows = max(windows, (es[l].BitLen()+laneWindow-1)/laneWindow)
	}
	copy(entry(0), lm.rOne)
	lm.amm(entry(1), zz, lm.rr)
	for i := uint(2); i < 1<<laneWindow; i++ {
		lm.amm(entry(i), entry(i-1), entry(1))
	}
	copy(z, lm.rOne)
	var idx [laneWidth]uint
	for k := windows - 1; k >= 0; k-- {
		same := true
		for l, e := range es {
			idx[l] = expWindow(e, k)
			same = same && idx[l] == idx[0]
		}
		b := entry(idx[0])
		if !same {
			b = gathered
			for l := range es {
				gather(b, l, entry(idx[l]), lm.n)
			}
		}
		if k == windows-1 {
			copy(z, b) // 1 * b
			continue
		}
		lm.amm(zz, z, z)
		lm.amm(z, zz, zz)
		lm.amm(zz, z, z)
		lm.amm(z, zz, zz)
		lm.amm(zz, z, b)
		z, zz = zz, z
	}
	return lm.leave(z, zz, len(xs), buf)
}

// expWindow returns bits [4k, 4k+4) of e >= 0.
func expWindow(e *big.Int, k int) uint {
	ws := e.Bits()
	off := laneWindow * k
	if off/bits.UintSize >= len(ws) {
		return 0
	}
	return uint(ws[off/bits.UintSize]) >> (off % bits.UintSize) & (1<<laneWindow - 1)
}

// gather copies lane l of the lane vector src, n limbs, into lane l of
// dst.
func gather(dst []uint64, l int, src []uint64, n int) {
	for j := l; j < laneWidth*n; j += laneWidth {
		dst[j] = src[j]
	}
}

// leave returns lanes 0..count-1 of z, in Montgomery form, as integers
// in [0, m); zz is scratch. Leaving Montgomery form gives z*R^-1 mod m in
// [0, m]: m only for z = 0 mod m, reduced below like big.Int.Exp's last
// subtraction.
func (lm *laneModulus) leave(z, zz []uint64, count int, buf []byte) []*big.Int {
	lm.amm(zz, z, lm.unit)
	out := make([]*big.Int, count)
	for l := range out {
		out[l] = fromLimbs(new(big.Int), zz[l:], laneWidth, lm.n, buf)
		if out[l].Cmp(lm.m) >= 0 {
			out[l].Sub(out[l], lm.m)
		}
	}
	return out
}
