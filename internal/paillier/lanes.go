package paillier

import (
	"encoding/binary"
	"math/big"
	"math/bits"
)

// This file drives the eight-lane Montgomery kernel (ammLanes, in
// lanes_amd64.s): x_l^e mod m for eight bases x_l and one exponent e,
// which is what DecryptBatch needs — every ciphertext of a batch is
// raised to the same subgroup order a modulo the same d^2 (DESIGN.md
// §10). A number is n limbs of 52 bits; a lane vector stores limb j of
// lane l at word laneWidth*j + l, so that one ZMM register holds one
// limb of all eight lanes.

const (
	// laneWidth is the kernel's lane count: eight 64-bit lanes of a
	// 512-bit register.
	laneWidth = 8
	limbBits  = 52
	limbMask  = 1<<limbBits - 1
	// maxLaneLimbs keeps the kernel's unnormalised limbs below 2^61:
	// each of its n passes adds at most four 52-bit terms to a limb.
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

// exp returns xs[l]^e mod m for every base (at most laneWidth of them,
// each non-negative; e >= 0). It runs big.Int.Exp's Montgomery schedule
// on all lanes at once: a table of x^0..x^15, then per 4-bit window of
// e, from the top word down, four squarings (but before the first
// window) and one multiplication by the window's entry, zero windows
// included. The table index is a window of the exponent shared by every
// lane, as in big.Int.Exp, and nothing else depends on e or the bases.
// Lanes past len(xs) compute 0^e and are discarded.
func (lm *laneModulus) exp(xs []*big.Int, e *big.Int) []*big.Int {
	w := laneWidth * lm.n
	scratch := make([]uint64, (1<<laneWindow+2)*w)
	powers := scratch[:w<<laneWindow]
	z, zz := scratch[w<<laneWindow:][:w], scratch[(1<<laneWindow+1)*w:]
	entry := func(i uint) []uint64 { return powers[int(i)*w:][:w] }

	buf := lm.bytes()
	var x big.Int
	for l, xl := range xs {
		toLimbs(zz[l:], laneWidth, lm.n, x.Mod(xl, lm.m), buf)
	}
	copy(entry(0), lm.rOne)
	lm.amm(entry(1), zz, lm.rr)
	for i := uint(2); i < 1<<laneWindow; i++ {
		lm.amm(entry(i), entry(i-1), entry(1))
	}
	copy(z, lm.rOne)
	ys := e.Bits()
	for i := len(ys) - 1; i >= 0; i-- {
		yi := uint(ys[i])
		for j := 0; j < bits.UintSize; j += laneWindow {
			if i != len(ys)-1 || j != 0 {
				lm.amm(zz, z, z)
				lm.amm(z, zz, zz)
				lm.amm(zz, z, z)
				lm.amm(z, zz, zz)
			}
			lm.amm(zz, z, entry(yi>>(bits.UintSize-laneWindow)))
			z, zz = zz, z
			yi <<= laneWindow
		}
	}
	// Leaving Montgomery form gives z*R^-1 mod m in [0, m]: m only for
	// z = 0 mod m, reduced below like big.Int.Exp's last subtraction.
	lm.amm(zz, z, lm.unit)
	out := make([]*big.Int, len(xs))
	for l := range xs {
		out[l] = fromLimbs(new(big.Int), zz[l:], laneWidth, lm.n, buf)
		if out[l].Cmp(lm.m) >= 0 {
			out[l].Sub(out[l], lm.m)
		}
	}
	return out
}
