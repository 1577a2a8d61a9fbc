package paillier

import (
	"math/big"

	"pisa/internal/fbexp"
	"pisa/internal/parallel"
)

// laneComb is the Lim–Lee comb of internal/fbexp on the lane kernel: the
// same geometry for the same height, exponent width and entry budget
// (fbexp.Geometry), and the same entries
//
//	G[j][I] = product over the rows i in I of base^(2^(i*a + j*b)),
//
// each stored once, in Montgomery form, as lm.n limbs of one word from
// word index(j, I)*lm.n on. An exponentiation runs fbexp.Table.Exp's
// schedule on eight exponents at once: per bit k of a block, from b-1
// down, one squaring of every lane (but before the first bit) and per
// block one multiplication of every lane by the entry its own exponent's
// bits select, gathered from the table (G[j][0] = 1). Like the fbexp
// comb, which entry a lane reads depends on its exponent's bits.
// Immutable after newLaneComb; safe for concurrent exp.
type laneComb struct {
	lm                                          *laneModulus
	height, rowBits, blocks, blockBits, maxBits int
	entries                                     []uint64
}

// newLaneComb builds the comb of base modulo lm.m for exponents of up to
// maxBits bits, with height window inside maxEntries entries, on the
// kernel: the chain of squarings base^(2^pos) that gives every
// single-row entry, serial and one lane wide, then the other entries in
// rounds by the top row of their row set — an entry is the entry without
// its top row times that row's power, so a round needs only the rounds
// before it — eight entries per kernel pass, the passes of a round
// spread over parallel.Auto() workers. The arguments must be in
// fbexp.New's ranges.
func newLaneComb(lm *laneModulus, base *big.Int, window, maxBits, maxEntries int) *laneComb {
	c := &laneComb{lm: lm, height: window, maxBits: maxBits}
	c.rowBits, c.blocks, c.blockBits = fbexp.Geometry(window, maxBits, maxEntries)
	perBlock := 1<<window - 1
	c.entries = make([]uint64, c.blocks*perBlock*lm.n)

	w := laneWidth * lm.n
	z, zz := make([]uint64, w), make([]uint64, w)
	buf := lm.bytes()
	toLimbs(zz, laneWidth, lm.n, new(big.Int).Mod(base, lm.m), buf)
	lm.amm(z, zz, lm.rr)
	for pos, last := 0, (window-1)*c.rowBits+(c.blocks-1)*c.blockBits; ; pos++ {
		if i, off := pos/c.rowBits, pos%c.rowBits; off%c.blockBits == 0 {
			c.store(c.index(off/c.blockBits, 1<<i), z, 0)
		}
		if pos == last {
			break
		}
		lm.amm(zz, z, z)
		z, zz = zz, z
	}

	type slot struct{ block, idx int }
	for top := 2; top < 1<<window; top <<= 1 {
		var round []slot
		for j := 0; j < c.blocks; j++ {
			for idx := top + 1; idx < 2*top; idx++ {
				round = append(round, slot{j, idx})
			}
		}
		runs := (len(round) + laneWidth - 1) / laneWidth
		parallel.ForChunks(parallel.Auto(), runs, func(lo, hi int) error {
			a, b, prod := make([]uint64, w), make([]uint64, w), make([]uint64, w)
			for r := lo; r < hi; r++ {
				run := round[r*laneWidth : min((r+1)*laneWidth, len(round))]
				for l, e := range run {
					c.load(a, l, c.index(e.block, e.idx&^top))
					c.load(b, l, c.index(e.block, top))
				}
				lm.amm(prod, a, b)
				for l, e := range run {
					c.store(c.index(e.block, e.idx), prod, l)
				}
			}
			return nil
		})
	}
	return c
}

// index returns where entry G[block][idx], idx >= 1, sits among the
// entries, as fbexp's table orders them.
func (c *laneComb) index(block, idx int) int {
	return block*(1<<c.height-1) + idx - 1
}

// store copies lane l of the lane vector v into entry e.
func (c *laneComb) store(e int, v []uint64, l int) {
	dst := c.entries[e*c.lm.n:][:c.lm.n]
	for j := range dst {
		dst[j] = v[j*laneWidth+l]
	}
}

// load copies entry e into lane l of the lane vector v.
func (c *laneComb) load(v []uint64, l, e int) {
	for j, x := range c.entries[e*c.lm.n:][:c.lm.n] {
		v[j*laneWidth+l] = x
	}
}

// exp returns base^s mod m for every s of ss, at most laneWidth of them,
// each in [0, 2^maxBits).
func (c *laneComb) exp(ss []*big.Int) []*big.Int {
	lm := c.lm
	w := laneWidth * lm.n
	scratch := make([]uint64, 3*w)
	z, zz, g := scratch[:w], scratch[w:2*w], scratch[2*w:]
	started := false
	for k := c.blockBits - 1; k >= 0; k-- {
		if started {
			lm.amm(zz, z, z)
			z, zz = zz, z
		}
		for j := 0; j < c.blocks; j++ {
			off := j*c.blockBits + k
			if off >= c.rowBits {
				continue // the last block of a row may be short
			}
			for l, s := range ss {
				idx := 0
				for i := 0; i < c.height; i++ {
					idx |= int(s.Bit(i*c.rowBits+off)) << i
				}
				if idx == 0 {
					gather(g, l, lm.rOne, lm.n)
				} else {
					c.load(g, l, c.index(j, idx))
				}
			}
			if !started {
				copy(z, g) // 1 * g
				started = true
				continue
			}
			lm.amm(zz, z, g)
			z, zz = zz, z
		}
	}
	return lm.leave(z, zz, len(ss), lm.bytes())
}

// sizeBytes reports the comb's memory footprint: its entries.
func (c *laneComb) sizeBytes() int { return 8 * len(c.entries) }
