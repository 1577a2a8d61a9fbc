// Package fbexp implements fixed-base modular exponentiation modulo a
// square: precompute a table of powers of one fixed base, then evaluate
// base^e mod n^2 for many short exponents e at a fraction of the cost
// of a general big.Int.Exp.
//
// The table is a Lim–Lee comb. An exponent of up to maxBits bits is
// cut into h rows of a = ceil(maxBits/h) bits, and every row into v
// blocks of b = ceil(a/v) bits, so bit k of block j of row i is
// exponent bit i*a + j*b + k. The table stores, for every block j and
// every non-empty row set I in [1, 2^h),
//
//	G[j][I] = product over the rows i in I of base^(2^(i*a + j*b)).
//
// An exponentiation walks k from b-1 down to 0: square the accumulator,
// then for every block multiply in the entry whose row set is the
// exponent's bits at offset j*b + k of each row. That is one
// multiplication per bit of a row and one squaring per bit of a block,
// a + b - 2 operations in all, against the ~1.5*maxBits of a
// square-and-multiply. For the Paillier hot path (n of 2048 bits,
// 256-bit exponents, h = 8) the geometry is a = 32, v = 11, b = 3:
// 31 multiplications and 2 squarings from 11*255 = 2805 entries.
//
// Arithmetic runs on halves. Every value x in [0, n^2) is held as the
// pair (u, v) with x = u + v*n and u, v < n, and since n^2 vanishes,
//
//	(u1 + v1*n)(u2 + v2*n) = r + (q + u1*v2 + u2*v1 mod n)*n
//	                         where u1*u2 = q*n + r:
//
// three products of n-sized operands and two divisions of a 2n-sized
// value by n, instead of one product of 2n-sized operands and a
// division of a 4n-sized value by 2n. Only the final result is
// reassembled into one integer.
//
// The trade-off is table memory: v*(2^h - 1) entries of one n^2-sized
// value each (1.37 MiB at the parameters above), kept as limb ranges
// of a single slab so that SizeBytes is what the table really retains.
// The caller states the entry budget and v is the largest block count
// worth having inside it, so one engine serves both ends of the trade:
// a base fixed for the life of a key gets thousands of entries, and a
// base fixed for a few hundred exponentiations gets a single block —
// at h = 3 over 100-bit exponents, a = b = 34: 7 entries, 66
// operations, built by 68 squarings and 4 multiplications.
//
// A Table is immutable after New returns, so any number of goroutines
// may call Exp concurrently.
package fbexp

import (
	"fmt"
	"math/big"
	"math/bits"
)

// Comb height bounds (the window argument of New). Heights above
// MaxWindow make a single block (2^h - 1 entries) outgrow any sensible
// table; height 0 or negative is meaningless.
const (
	MinWindow = 1
	MaxWindow = 12
)

const (
	// maxExpBits caps the exponent width a table may be asked to cover,
	// so a misconfigured width fails fast instead of squaring for
	// minutes. Far above any short-exponent width in use.
	maxExpBits = 1 << 16

	wordBytes = bits.UintSize / 8
)

// Table holds the precomputed comb of one fixed base modulo n^2.
// Immutable after construction; safe for concurrent Exp.
type Table struct {
	n *big.Int

	height    int // h: rows, i.e. bits of a table index
	rowBits   int // a: exponent bits per row
	blocks    int // v: blocks per row
	blockBits int // b: exponent bits per block
	maxBits   int

	// slab holds entry G[j][I] at index j*(2^h - 1) + I - 1, each entry
	// 2*limbs words: u then v, both zero-padded to limbs = len(n) words.
	limbs int
	slab  []big.Word
}

// pair is the working state of one exponentiation or table build: the
// accumulator (au, av) standing for au + av*n, and scratch for the
// products. The five integers are capacity-capped ranges of one
// allocation, each wide enough for everything mul and sqr put in it
// (a double-width product plus carries; math/big's division wants one
// word more for the remainder), so no operation allocates.
type pair struct {
	n       *big.Int
	au, av  big.Int
	t, m, q big.Int
}

func newPair(n *big.Int) *pair {
	p := &pair{n: n}
	size := 2*len(n.Bits()) + 4
	buf := make([]big.Word, 5*size)
	for i, x := range []*big.Int{&p.au, &p.av, &p.t, &p.m, &p.q} {
		x.SetBits(buf[i*size : i*size : (i+1)*size])
	}
	return p
}

// mul sets the accumulator to accumulator * (u + v*n) mod n^2.
func (p *pair) mul(u, v *big.Int) {
	p.t.Mul(&p.au, u)
	p.m.Mul(&p.au, v)
	p.q.QuoRem(&p.t, p.n, &p.au) // au*u = q*n + au'
	p.t.Mul(&p.av, u)
	p.m.Add(&p.m, &p.t)
	p.m.Add(&p.m, &p.q)
	p.q.QuoRem(&p.m, p.n, &p.av) // q is a throwaway quotient here
}

// sqr squares the accumulator mod n^2.
func (p *pair) sqr() {
	p.t.Mul(&p.au, &p.au)
	p.m.Mul(&p.au, &p.av)
	p.m.Lsh(&p.m, 1)
	p.q.QuoRem(&p.t, p.n, &p.au)
	p.m.Add(&p.m, &p.q)
	p.q.QuoRem(&p.m, p.n, &p.av)
}

// New precomputes the comb of base modulo n^2, covering exponents of up
// to maxBits bits with a comb of height window and as many blocks as
// keep v*(2^window - 1) entries inside maxEntries; a budget below one
// block's entries buys exactly one block. The build is one chain of
// squarings up to the highest tabled power of two plus one
// multiplication per remaining entry (an entry is the entry without its
// top row times that row's power) — about 3000 half-width operations
// for the 2816-entry table of a Paillier nonce base, 72 for one block of
// height 3 over a 100-bit exponent.
func New(base, n *big.Int, window, maxBits, maxEntries int) (*Table, error) {
	if base == nil || n == nil {
		return nil, fmt.Errorf("fbexp: nil base or modulus")
	}
	if n.Cmp(big.NewInt(2)) < 0 {
		return nil, fmt.Errorf("fbexp: n must be >= 2, got %s", n)
	}
	if window < MinWindow || window > MaxWindow {
		return nil, fmt.Errorf("fbexp: comb height %d outside [%d, %d]", window, MinWindow, MaxWindow)
	}
	if maxBits < 1 || maxBits > maxExpBits {
		return nil, fmt.Errorf("fbexp: maxBits %d outside [1, %d]", maxBits, maxExpBits)
	}
	if maxEntries < 1 {
		return nil, fmt.Errorf("fbexp: entry budget %d below 1", maxEntries)
	}
	perBlock := 1<<uint(window) - 1
	rowBits := (maxBits + window - 1) / window
	maxBlocks := min(max(maxEntries/perBlock, 1), rowBits)
	blockBits := (rowBits + maxBlocks - 1) / maxBlocks
	t := &Table{
		n:         n,
		height:    window,
		rowBits:   rowBits,
		blocks:    (rowBits + blockBits - 1) / blockBits, // fewest blocks of that width
		blockBits: blockBits,
		maxBits:   maxBits,
		limbs:     len(n.Bits()),
	}
	t.slab = make([]big.Word, t.blocks*perBlock*2*t.limbs)

	// The chain base^(2^pos): position i*a + j*b is row i's power in
	// block j, the single-row entry G[j][1<<i].
	p := newPair(n)
	p.t.Mod(base, p.m.Mul(n, n))
	p.av.QuoRem(&p.t, n, &p.au)
	for pos, last := 0, (window-1)*rowBits+(t.blocks-1)*blockBits; ; pos++ {
		if i, off := pos/rowBits, pos%rowBits; off%blockBits == 0 {
			t.store(off/blockBits, 1<<uint(i), p)
		}
		if pos == last {
			break
		}
		p.sqr()
	}
	var u, v big.Int
	for j := 0; j < t.blocks; j++ {
		for idx := 3; idx <= perBlock; idx++ {
			top := 1 << uint(bits.Len(uint(idx))-1)
			if idx == top {
				continue // single row: stored by the chain
			}
			t.entry(j, idx&^top, &u, &v)
			p.au.Set(&u)
			p.av.Set(&v)
			t.entry(j, top, &u, &v)
			p.mul(&u, &v)
			t.store(j, idx, p)
		}
	}
	return t, nil
}

// offset returns where entry G[block][idx] starts in the slab.
func (t *Table) offset(block, idx int) int {
	return (block*(1<<uint(t.height)-1) + idx - 1) * 2 * t.limbs
}

// store copies the accumulator into entry G[block][idx]; the slab is
// zero where the halves are shorter than limbs words.
func (t *Table) store(block, idx int, p *pair) {
	off := t.offset(block, idx)
	copy(t.slab[off:off+t.limbs], p.au.Bits())
	copy(t.slab[off+t.limbs:off+2*t.limbs], p.av.Bits())
}

// entry points u and v at the halves of G[block][idx]. The views alias
// the slab (capacity capped at the half) and must only be read.
func (t *Table) entry(block, idx int, u, v *big.Int) {
	off := t.offset(block, idx)
	mid, end := off+t.limbs, off+2*t.limbs
	u.SetBits(t.slab[off:mid:mid])
	v.SetBits(t.slab[mid:end:end])
}

// Exp computes base^e mod n^2. Exponents in [0, 2^maxBits) take the
// comb (a + b - 2 half-width operations); anything else — negative or
// wider than the table — falls back to big.Int.Exp on the base, which
// the table holds as its first entry, so Exp is total over all
// exponents.
func (t *Table) Exp(e *big.Int) *big.Int {
	if e.Sign() < 0 || e.BitLen() > t.maxBits {
		var u, v big.Int
		t.entry(0, 1, &u, &v) // G[0][{row 0}] = base^(2^0)
		base := new(big.Int).Mul(&v, t.n)
		return base.Exp(base.Add(base, &u), e, new(big.Int).Mul(t.n, t.n))
	}
	p := newPair(t.n)
	var u, v big.Int
	started := false
	for k := t.blockBits - 1; k >= 0; k-- {
		if started {
			p.sqr()
		}
		for j := 0; j < t.blocks; j++ {
			off := j*t.blockBits + k
			if off >= t.rowBits {
				continue // the last block of a row may be short
			}
			idx := 0
			for i := 0; i < t.height; i++ {
				idx |= int(e.Bit(i*t.rowBits+off)) << uint(i)
			}
			if idx == 0 {
				continue
			}
			t.entry(j, idx, &u, &v)
			if started {
				p.mul(&u, &v)
			} else {
				p.au.Set(&u)
				p.av.Set(&v)
				started = true
			}
		}
	}
	if !started {
		return big.NewInt(1) // e == 0; n >= 2, so 1 is reduced
	}
	p.t.Mul(&p.av, t.n)
	return new(big.Int).Add(&p.t, &p.au)
}

// Height reports the comb height h (the window New was given).
func (t *Table) Height() int { return t.height }

// Blocks reports the block count v New derived from its entry budget.
func (t *Table) Blocks() int { return t.blocks }

// MaxExpBits reports the widest exponent the comb covers.
func (t *Table) MaxExpBits() int { return t.maxBits }

// SizeBytes reports the table's memory footprint: exactly the slab New
// filled, which is all a table retains beyond a few words of geometry.
func (t *Table) SizeBytes() int { return len(t.slab) * wordBytes }
