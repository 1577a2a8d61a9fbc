// Package fbexp implements modular exponentiation modulo a square, n^2,
// on arithmetic half as wide as the modulus: a general x^e (Exp), and a
// fixed-base engine (Table) that precomputes powers of one base and then
// evaluates base^e for many short exponents e at a fraction of the
// general cost.
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
// division of a 4n-sized value by 2n. The divisions are exact Barrett
// reductions (pair.divmod: two more products each, against a constant
// computed once per Modulus), so an operation is multiplications and
// nothing else. Only the final result is reassembled into one integer.
//
// The trade-off is table memory: v*(2^h - 1) entries of one n^2-sized
// value each (1.37 MiB at the parameters above), kept as limb ranges
// of a single slab so that SizeBytes is what the table really retains.
// The caller states the entry budget and v is the largest block count
// worth having inside it, so one engine serves every point of the
// trade: a base that draws a nonce per ciphertext for the life of a key
// gets thousands of entries; one that draws a few per request gets two
// blocks of a lower comb (h = 6, a = 43, v = 2, b = 22: 126 entries,
// 63 KiB, 63 operations); and a base fixed for a few hundred
// exponentiations gets a single block — at h = 3 over 100-bit
// exponents, a = b = 34: 7 entries, 66 operations, built by 68
// squarings and 4 multiplications.
//
// A build is one chain of squarings, which is serial, and then one
// multiplication per remaining entry. A block's entries need only the
// chain's powers for that block and each other, so the blocks are
// built on all parallel.Auto() workers at once, each with working state
// of its own, into disjoint ranges of the slab. The slab is the same
// at any worker count. A single-block table never leaves the caller's
// goroutine.
//
// A Modulus and a Table are immutable once built, so any number of
// goroutines may exponentiate over them concurrently.
package fbexp

import (
	"fmt"
	"math/big"
	"math/bits"

	"pisa/internal/parallel"
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
	m *Modulus

	height    int // h: rows, i.e. bits of a table index
	rowBits   int // a: exponent bits per row
	blocks    int // v: blocks per row
	blockBits int // b: exponent bits per block
	maxBits   int

	// entries holds G[j][I] at index j*(2^h - 1) + I - 1.
	entries halves
}

// New precomputes the comb of base modulo m's n^2, covering exponents of
// up to maxBits bits with a comb of height window and as many blocks as
// keep v*(2^window - 1) entries inside maxEntries; a budget below one
// block's entries buys exactly one block. The build is one chain of
// squarings up to the highest tabled power of two plus one
// multiplication per remaining entry (an entry is the entry without its
// top row times that row's power), the blocks' multiplications spread
// over parallel.Auto() workers — about 3000 half-width operations for
// the 2816-entry table of a Paillier nonce base, 72 for one block of
// height 3 over a 100-bit exponent.
func New(base *big.Int, m *Modulus, window, maxBits, maxEntries int) (*Table, error) {
	if base == nil || m == nil {
		return nil, fmt.Errorf("fbexp: nil base or modulus")
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
	rowBits, blocks, blockBits := Geometry(window, maxBits, maxEntries)
	t := &Table{
		m:         m,
		height:    window,
		rowBits:   rowBits,
		blocks:    blocks,
		blockBits: blockBits,
		maxBits:   maxBits,
	}
	t.entries = halves{limbs: m.limbs, slab: make([]big.Word, t.blocks*perBlock*2*m.limbs)}

	// The chain base^(2^pos): position i*a + j*b is row i's power in
	// block j, the single-row entry G[j][1<<i].
	p, _ := newPair(m, 0)
	p.load(base)
	for pos, last := 0, (window-1)*rowBits+(t.blocks-1)*blockBits; ; pos++ {
		if i, off := pos/rowBits, pos%rowBits; off%blockBits == 0 {
			t.entries.store(t.index(off/blockBits, 1<<uint(i)), p)
		}
		if pos == last {
			break
		}
		p.sqr()
	}
	// The blocks are independent now: each is built with a pair of its
	// own (block 0 takes the chain's).
	err := parallel.For(parallel.Auto(), t.blocks, func(j int) error {
		q := p
		if j > 0 {
			q, _ = newPair(m, 0)
		}
		var u, v big.Int
		for idx := 3; idx <= perBlock; idx++ {
			top := 1 << uint(bits.Len(uint(idx))-1)
			if idx == top {
				continue // single row: stored by the chain
			}
			t.entries.at(t.index(j, idx&^top), &u, &v)
			q.set(&u, &v)
			t.entries.at(t.index(j, top), &u, &v)
			q.mul(&u, &v)
			t.entries.store(t.index(j, idx), q)
		}
		return nil
	})
	return t, err
}

// Geometry returns the comb New builds for a height, an exponent width
// and an entry budget: rows of a = ceil(maxBits/window) bits, cut into
// as many blocks as keep blocks*(2^window - 1) entries inside maxEntries
// (at least one, at most a), of b = ceil(a/v) bits each, and then the
// fewest blocks of that width. The arguments must be in New's ranges.
func Geometry(window, maxBits, maxEntries int) (rowBits, blocks, blockBits int) {
	rowBits = (maxBits + window - 1) / window
	maxBlocks := min(max(maxEntries/(1<<uint(window)-1), 1), rowBits)
	blockBits = (rowBits + maxBlocks - 1) / maxBlocks
	return rowBits, (rowBits + blockBits - 1) / blockBits, blockBits
}

// index returns where entry G[block][idx] sits among the entries.
func (t *Table) index(block, idx int) int {
	return block*(1<<uint(t.height)-1) + idx - 1
}

// Exp computes base^e mod n^2. Exponents in [0, 2^maxBits) take the
// comb (a + b - 2 half-width operations); anything else — negative or
// wider than the table — goes through the general Exp on the base, which
// the table holds as its first entry, so Exp is total over all
// exponents.
func (t *Table) Exp(e *big.Int) *big.Int {
	var u, v big.Int
	if e.Sign() < 0 || e.BitLen() > t.maxBits {
		t.entries.at(t.index(0, 1), &u, &v) // G[0][{row 0}] = base^(2^0)
		base := new(big.Int).Mul(&v, t.m.n)
		return Exp(base.Add(base, &u), e, t.m)
	}
	p, _ := newPair(t.m, 0)
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
			t.entries.at(t.index(j, idx), &u, &v)
			if started {
				p.mul(&u, &v)
			} else {
				p.set(&u, &v)
				started = true
			}
		}
	}
	if !started {
		return big.NewInt(1) // e == 0; n >= 2, so 1 is reduced
	}
	return p.value()
}

// SizeBytes reports the table's memory footprint: exactly the slab New
// filled, which is all a table retains beyond a few words of geometry.
func (t *Table) SizeBytes() int { return len(t.entries.slab) * wordBytes }
