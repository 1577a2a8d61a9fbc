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
// word index(j, I)*lm.n on. A group key's nonce comb is one (height 8,
// 2 805 entries); so is a PowerTable on a CPU with the kernel (height 3,
// one block of 7 entries). combExp raises up to eight combs' bases at
// once, each lane reading its entries from its own comb; a nonce run
// passes the same comb in every lane. Immutable after newLaneCombs; safe
// for concurrent exp.
type laneComb struct {
	lm                                          *laneModulus
	height, rowBits, blocks, blockBits, maxBits int
	entries                                     []uint64
}

// newLaneCombs builds the comb of every base of bases, at most laneWidth
// of them, modulo lm.m for exponents of up to maxBits bits, with height
// window inside maxEntries entries, on the kernel: one chain of squarings
// base^(2^pos), serial, each lane carrying its own base, gives every
// single-row entry of every comb; then the other entries come in rounds
// by the top row of their row set — an entry is the entry without its
// top row times that row's power, so a round needs only the rounds
// before it — eight entries per kernel pass, of one comb or of several,
// the passes of a round spread over up to workers goroutines. The
// arguments must be in fbexp.New's ranges.
func newLaneCombs(lm *laneModulus, bases []*big.Int, window, maxBits, maxEntries, workers int) []*laneComb {
	rowBits, blocks, blockBits := fbexp.Geometry(window, maxBits, maxEntries)
	perBlock := 1<<window - 1
	combs := make([]*laneComb, len(bases))
	for l := range combs {
		combs[l] = &laneComb{
			lm: lm, height: window, maxBits: maxBits,
			rowBits: rowBits, blocks: blocks, blockBits: blockBits,
			entries: make([]uint64, blocks*perBlock*lm.n),
		}
	}

	s := lm.getScratch()
	z, zz := s.vector(0, lm.n), s.vector(1, lm.n)
	clear(zz)
	var x big.Int
	for l, base := range bases {
		toLimbs(zz[l:], laneWidth, lm.n, x.Mod(base, lm.m), s.buf)
	}
	lm.amm(z, zz, lm.rr)
	for pos, last := 0, (window-1)*rowBits+(blocks-1)*blockBits; ; pos++ {
		if i, off := pos/rowBits, pos%rowBits; off%blockBits == 0 {
			for l, c := range combs {
				c.store(c.index(off/blockBits, 1<<i), z, l)
			}
		}
		if pos == last {
			break
		}
		lm.amm(zz, z, z)
		z, zz = zz, z
	}
	lm.scratch.Put(s)

	type slot struct {
		comb       *laneComb
		block, idx int
	}
	for top := 2; top < 1<<window; top <<= 1 {
		var round []slot
		for _, c := range combs {
			for j := 0; j < blocks; j++ {
				for idx := top + 1; idx < 2*top; idx++ {
					round = append(round, slot{c, j, idx})
				}
			}
		}
		runs := (len(round) + laneWidth - 1) / laneWidth
		parallel.ForChunks(workers, runs, func(lo, hi int) error {
			s := lm.getScratch()
			defer lm.scratch.Put(s)
			a, b, prod := s.vector(0, lm.n), s.vector(1, lm.n), s.vector(2, lm.n)
			for r := lo; r < hi; r++ {
				run := round[r*laneWidth : min((r+1)*laneWidth, len(round))]
				for l, e := range run {
					e.comb.load(a, l, e.comb.index(e.block, e.idx&^top))
					e.comb.load(b, l, e.comb.index(e.block, top))
				}
				lm.amm(prod, a, b)
				for l, e := range run {
					e.comb.store(e.comb.index(e.block, e.idx), prod, l)
				}
			}
			return nil
		})
	}
	return combs
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
// each in [0, 2^maxBits): combExp with c in every lane.
func (c *laneComb) exp(ss []*big.Int) []*big.Int {
	var combs [laneWidth]*laneComb
	for l := range ss {
		combs[l] = c
	}
	return combExp(combs[:len(ss)], ss)
}

// combExp returns combs[l]'s base to the power ss[l] mod m for every
// lane l < len(ss), at most laneWidth of them, each s in [0, 2^maxBits);
// the combs share one modulus and geometry. It runs fbexp.Table.Exp's
// schedule on all lanes at once: per bit k of a block, from b-1 down,
// one squaring of every lane (but before the first bit) and per block
// one multiplication of every lane by the entry its own exponent's bits
// select, gathered from its own comb (G[j][0] = 1). As in the fbexp
// comb, which entry a lane reads depends on its exponent's bits. Lanes
// past len(ss) are discarded.
func combExp(combs []*laneComb, ss []*big.Int) []*big.Int {
	c := combs[0]
	lm := c.lm
	s := lm.getScratch()
	defer lm.scratch.Put(s)
	z, zz, g := s.vector(0, lm.n), s.vector(1, lm.n), s.vector(2, lm.n)
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
			for l, e := range ss {
				idx := 0
				for i := 0; i < c.height; i++ {
					idx |= int(e.Bit(i*c.rowBits+off)) << i
				}
				if idx == 0 {
					gather(g, l, lm.rOne, lm.n)
				} else {
					combs[l].load(g, l, c.index(j, idx))
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
	return lm.leave(z, zz, len(ss), s.buf)
}

// sizeBytes reports the comb's memory footprint: its entries.
func (c *laneComb) sizeBytes() int { return 8 * len(c.entries) }
