package fbexp

import "math/big"

// windowBits is the sliding-window width for an exponent whose
// significant part — top bit down to lowest set bit — spans bits bits:
// the width at which 2^(w-1) odd powers to build plus bits/(w+1)
// multiplications is least. The trailing zeros of an exponent are
// squarings whatever the window, so they do not count: a power of two
// spans one bit and builds no table.
func windowBits(bits int) int {
	switch {
	case bits > 671:
		return 6
	case bits > 239:
		return 5
	case bits > 79:
		return 4
	case bits > 23:
		return 3
	case bits > 6:
		return 2
	}
	return 1
}

// Exp returns x^e mod n^2 in [0, n^2), for any integer x (taken modulo
// n^2) and e; as with big.Int.Exp, a negative e is the power of x's
// inverse, and the result nil when x is not a unit modulo n^2.
//
// It is a sliding-window exponentiation on the half-width pair
// arithmetic of the tables: one squaring per exponent bit below the top
// one, one multiplication per window, and no multiplication across a run
// of zeros. The odd powers x, x^3, ..., x^(2^w - 1) and all scratch are
// one allocation.
func Exp(x, e *big.Int, m *Modulus) *big.Int {
	if e.Sign() < 0 {
		nn := new(big.Int).Mul(m.n, m.n)
		inv := new(big.Int).ModInverse(x, nn)
		if inv == nil {
			return nil
		}
		x, e = inv, new(big.Int).Neg(e)
	}
	if e.Sign() == 0 {
		return big.NewInt(1) // n >= 2, so 1 is reduced
	}
	top := e.BitLen() - 1
	w := windowBits(top + 1 - int(e.TrailingZeroBits()))
	p, rest := newPair(m, (1<<uint(w-1)+1)*2*m.limbs)
	odd := halves{limbs: m.limbs, slab: rest} // odd[i] = x^(2i+1); the last pair is x^2
	var u, v big.Int
	p.load(x)
	odd.store(0, p)
	if w > 1 {
		sq := 1 << uint(w-1)
		p.sqr()
		odd.store(sq, p)
		odd.at(0, &u, &v)
		p.set(&u, &v)
		odd.at(sq, &u, &v)
		for i := 1; i < sq; i++ {
			p.mul(&u, &v)
			odd.store(i, p)
		}
	}

	// Left to right: a zero bit is a squaring; a one bit opens the
	// longest window of at most w bits that ends in a one, whose value is
	// odd and so tabled.
	for i := top; i >= 0; {
		if e.Bit(i) == 0 {
			p.sqr()
			i--
			continue
		}
		lo := max(i-w+1, 0)
		for e.Bit(lo) == 0 {
			lo++
		}
		val := 0
		for j := i; j >= lo; j-- {
			val = val<<1 | int(e.Bit(j))
		}
		odd.at(val>>1, &u, &v)
		if i == top {
			p.set(&u, &v) // the first window is the accumulator's initial value
		} else {
			for j := i; j >= lo; j-- {
				p.sqr()
			}
			p.mul(&u, &v)
		}
		i = lo - 1
	}
	return p.value()
}
