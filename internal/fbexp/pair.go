package fbexp

import (
	"fmt"
	"math/big"
)

var one = big.NewInt(1)

// Modulus is n with what the arithmetic modulo n^2 derives from it once:
// its width in words and the Barrett constant. Every Table over n and
// every Exp share one; it is immutable after NewModulus and safe for
// concurrent use.
type Modulus struct {
	n     *big.Int
	limbs int      // k: words of n
	mu    *big.Int // floor(b^(2k) / n), b the word base
}

// NewModulus prepares arithmetic modulo n^2 for n >= 2. The caller must
// not change n afterwards.
func NewModulus(n *big.Int) (*Modulus, error) {
	if n == nil || n.Cmp(big.NewInt(2)) < 0 {
		return nil, fmt.Errorf("fbexp: n must be >= 2, got %v", n)
	}
	k := len(n.Bits())
	mu := new(big.Int).Lsh(one, uint(2*k*wordBytes*8))
	return &Modulus{n: n, limbs: k, mu: mu.Quo(mu, n)}, nil
}

// pair is the working state of one exponentiation or table build: the
// accumulator (au, av) standing for au + av*n, and scratch for the
// products and their reduction. The integers are capacity-capped ranges
// of one allocation, each wide enough for everything mul, sqr and divmod
// put in it — a sum below 2n^2 + n is 2k+1 words, its top k+2 words times
// the k+2 words mu has at most are 2k+4 — so no operation allocates. The
// rest of the allocation is the caller's (Exp keeps its odd powers
// there).
type pair struct {
	m       *Modulus
	au, av  big.Int
	t, s, q big.Int // products, their sum, the quotient carried from u to v
	e, f    big.Int // divmod's two products
	view    big.Int // divmod's word-aligned windows into x and e; owns nothing
}

func newPair(m *Modulus, extraWords int) (*pair, []big.Word) {
	p := &pair{m: m}
	size := 2*m.limbs + 4
	ints := []*big.Int{&p.au, &p.av, &p.t, &p.s, &p.q, &p.e, &p.f}
	buf := make([]big.Word, len(ints)*size+extraWords)
	for i, x := range ints {
		x.SetBits(buf[i*size : i*size : (i+1)*size])
	}
	return p, buf[len(ints)*size:]
}

// divmod sets r = x mod n and, unless q is nil, q = x div n, exactly,
// for any 0 <= x < b^(2k+1) — which covers the largest sum mul and sqr
// form, 2n^2 + n, one word past b^(2k) when n's top bit is set. It is
// Barrett's reduction (HAC 14.42) with the quotient kept: the estimate
//
//	q3 = floor(floor(x / b^(k-1)) * mu / b^(k+1))
//
// is two word-aligned views and one multiplication, never above the true
// quotient and short of it by less than x/b^(2k) + 2, i.e. by at most 4
// for those sums. A second multiplication and that many subtractions of n
// finish: no trial division, and none to fall back on for the operands
// the estimate is worst on. q and r must not alias x or each other.
func (p *pair) divmod(q, r, x *big.Int) {
	m := p.m
	xb := x.Bits()
	if len(xb) < m.limbs { // x < b^(k-1) <= n
		r.Set(x)
		if q != nil {
			q.SetUint64(0)
		}
		return
	}
	p.e.Mul(p.view.SetBits(xb[m.limbs-1:]), m.mu)
	eb := p.e.Bits()
	q3 := p.view.SetBits(eb[min(m.limbs+1, len(eb)):])
	r.Sub(x, p.f.Mul(q3, m.n))
	if q != nil {
		q.Set(q3)
	}
	for r.Cmp(m.n) >= 0 {
		r.Sub(r, m.n)
		if q != nil {
			q.Add(q, one)
		}
	}
}

// mul sets the accumulator to accumulator * (u + v*n) mod n^2.
func (p *pair) mul(u, v *big.Int) {
	p.t.Mul(&p.au, u)
	p.s.Mul(&p.au, v)
	p.divmod(&p.q, &p.au, &p.t) // au*u = q*n + au'
	p.t.Mul(&p.av, u)
	p.s.Add(&p.s, &p.t)
	p.s.Add(&p.s, &p.q)
	p.divmod(nil, &p.av, &p.s)
}

// sqr squares the accumulator mod n^2.
func (p *pair) sqr() {
	p.t.Mul(&p.au, &p.au)
	p.s.Mul(&p.au, &p.av)
	p.s.Lsh(&p.s, 1)
	p.divmod(&p.q, &p.au, &p.t)
	p.s.Add(&p.s, &p.q)
	p.divmod(nil, &p.av, &p.s)
}

// load sets the accumulator to x mod n^2, for any integer x: the halves
// are x mod n and (x div n) mod n. A non-negative x of up to 2k words —
// anything already reduced, every ciphertext — splits through divmod; a
// wider or negative one takes math/big's Euclidean division, so that it
// lands on its residue.
func (p *pair) load(x *big.Int) {
	n := p.m.n
	if x.Sign() >= 0 && len(x.Bits()) <= 2*p.m.limbs {
		p.divmod(&p.av, &p.au, x)
	} else {
		p.av.DivMod(x, n, &p.au)
	}
	if p.av.Sign() < 0 || p.av.Cmp(n) >= 0 {
		p.av.Mod(&p.av, n)
	}
}

// set copies the halves (u, v) into the accumulator.
func (p *pair) set(u, v *big.Int) {
	p.au.Set(u)
	p.av.Set(v)
}

// value assembles the accumulator into one fresh integer au + av*n.
func (p *pair) value() *big.Int {
	p.t.Mul(&p.av, p.m.n)
	return new(big.Int).Add(&p.t, &p.au)
}

// halves is a run of (u, v) pairs kept as limb ranges of one slab, each
// half zero-padded to k words: the storage of a Table's entries and of
// Exp's odd powers.
type halves struct {
	limbs int
	slab  []big.Word
}

// store copies the accumulator into pair i; the slab must be zero where
// the halves are shorter than k words (each pair is stored once).
func (h halves) store(i int, p *pair) {
	off := i * 2 * h.limbs
	copy(h.slab[off:off+h.limbs], p.au.Bits())
	copy(h.slab[off+h.limbs:off+2*h.limbs], p.av.Bits())
}

// at points u and v at the halves of pair i. The views alias the slab
// (capacity capped at the half) and must only be read.
func (h halves) at(i int, u, v *big.Int) {
	off := i * 2 * h.limbs
	mid, end := off+h.limbs, off+2*h.limbs
	u.SetBits(h.slab[off:mid:mid])
	v.SetBits(h.slab[mid:end:end])
}
