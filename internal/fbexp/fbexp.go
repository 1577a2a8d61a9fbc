// Package fbexp implements fixed-base windowed modular exponentiation:
// precompute a table of powers of one fixed base, then evaluate
// base^e mod m for many short exponents e at a fraction of the cost of
// a general big.Int.Exp.
//
// For window width w and a maximum exponent width of maxBits bits, the
// exponent splits into L = ceil(maxBits/w) radix-2^w digits
// e = sum_i d_i * 2^(i*w), and the table stores
//
//	levels[i][j] = base^(j * 2^(i*w)) mod m
//
// for every level i and digit value j in [0, 2^w). An exponentiation
// is then the product of one table entry per non-zero digit — at most
// L modular multiplications, no squarings at all. For the Paillier hot
// path (2048-bit modulus n, 4096-bit ciphertext modulus n², 256-bit
// short exponents, w = 6) that is ~43 multiplications instead of the
// ~3000 multiplication-equivalents of a full-width sliding-window Exp.
//
// The trade-off is table memory: L * 2^w entries of one modulus-sized
// value each (about 1.4 MiB at the parameters above). Every entry is
// copied out of the arithmetic scratch into one exact-size slab, so
// that figure is what the table really retains: math/big leaves a
// product's double-width backing array behind the reduced result, and
// keeping those results directly held 8.3 MiB per table. Tables are
// built once per (key, base) and shared; see SizeBytes.
//
// A Table is immutable after New returns, so any number of goroutines
// may call Exp concurrently.
package fbexp

import (
	"fmt"
	"math/big"
)

// Window width bounds. Widths above MaxWindow would make the table
// (L * 2^w entries) explode in memory for no multiplication savings
// worth having; width 0 or negative is meaningless.
const (
	MinWindow = 1
	MaxWindow = 12
)

// maxTableEntries caps the precomputed-entry count (levels * 2^window)
// so a misconfigured window/maxBits pair fails fast instead of
// allocating gigabytes.
const maxTableEntries = 1 << 22

// Table holds the precomputed powers of one fixed base modulo one
// modulus. Immutable after construction; safe for concurrent Exp.
type Table struct {
	base    *big.Int // reduced base, kept for the out-of-range fallback
	modulus *big.Int
	window  int
	maxBits int
	// pow[i<<window|j] = base^(j << (i*window)) mod modulus. The limbs
	// of every entry are exact-size slices of one shared slab.
	pow []big.Int
}

// New precomputes the windowed power table for base modulo modulus,
// covering exponents of up to maxBits bits with the given window
// width. The build costs roughly levels * 2^window modular
// multiplications (a few milliseconds at Paillier scale) and is paid
// once per fixed base.
func New(base, modulus *big.Int, window, maxBits int) (*Table, error) {
	if base == nil || modulus == nil {
		return nil, fmt.Errorf("fbexp: nil base or modulus")
	}
	if modulus.Cmp(big.NewInt(2)) < 0 {
		return nil, fmt.Errorf("fbexp: modulus must be >= 2, got %s", modulus)
	}
	if window < MinWindow || window > MaxWindow {
		return nil, fmt.Errorf("fbexp: window %d outside [%d, %d]", window, MinWindow, MaxWindow)
	}
	if maxBits < 1 {
		return nil, fmt.Errorf("fbexp: maxBits must be positive, got %d", maxBits)
	}
	numLevels := (maxBits + window - 1) / window
	if numLevels<<uint(window) > maxTableEntries {
		return nil, fmt.Errorf("fbexp: table would hold %d entries (max %d); shrink window or maxBits",
			numLevels<<uint(window), maxTableEntries)
	}
	size := 1 << uint(window)
	t := &Table{
		base:    new(big.Int).Mod(base, modulus),
		modulus: modulus,
		window:  window,
		maxBits: maxBits,
		pow:     make([]big.Int, numLevels*size),
	}
	limbs := len(modulus.Bits())
	slab := make([]big.Word, len(t.pow)*limbs)
	// store copies v into entry k's slab segment. The capacity is capped
	// at the segment so nothing can grow one entry into the next.
	store := func(k int, v *big.Int) {
		seg := slab[k*limbs : k*limbs : (k+1)*limbs]
		t.pow[k].SetBits(append(seg, v.Bits()...))
	}
	one := big.NewInt(1)
	cur := new(big.Int).Set(t.base) // base^(2^(i*window)) for the current level
	// Scratch: the double-width product and the reduced power live in
	// two reused integers and only exact-size copies are retained.
	acc, prod := new(big.Int), new(big.Int)
	for i := 0; i < numLevels; i++ {
		store(i*size, one)
		acc.Set(cur)
		for j := 1; j < size; j++ {
			store(i*size+j, acc)
			// After the last entry this is cur^(2^window), the next
			// level's base: one multiplication instead of window squarings.
			prod.Mul(acc, cur)
			acc.Mod(prod, modulus)
		}
		cur.Set(acc)
	}
	return t, nil
}

// Exp computes base^e mod modulus. Exponents in [0, 2^maxBits) take
// the windowed fast path (at most one multiplication per level);
// anything else — negative or wider than the table — falls back to
// big.Int.Exp on the stored base, so Exp is total over all exponents.
func (t *Table) Exp(e *big.Int) *big.Int {
	if e.Sign() < 0 || e.BitLen() > t.maxBits {
		return new(big.Int).Exp(t.base, e, t.modulus)
	}
	acc := big.NewInt(1)
	bits := e.BitLen()
	for i := 0; i*t.window < bits; i++ {
		d := digit(e, i*t.window, t.window)
		if d == 0 {
			continue
		}
		acc.Mul(acc, &t.pow[uint(i)<<uint(t.window)|d])
		acc.Mod(acc, t.modulus)
	}
	return acc
}

// digit extracts the width-bit digit of e starting at bit offset off.
func digit(e *big.Int, off, width int) uint {
	var d uint
	for j := 0; j < width; j++ {
		d |= e.Bit(off+j) << uint(j)
	}
	return d
}

// Window reports the window width in bits.
func (t *Table) Window() int { return t.window }

// MaxExpBits reports the widest exponent the fast path covers.
func (t *Table) MaxExpBits() int { return t.maxBits }

// Levels reports the number of digit levels (table rows).
func (t *Table) Levels() int { return len(t.pow) >> uint(t.window) }

// SizeBytes reports the table's memory footprint: one modulus-sized
// value per entry (the slab New fills; entry headers add a few percent).
func (t *Table) SizeBytes() int {
	entryBytes := (t.modulus.BitLen() + 7) / 8
	return len(t.pow) * entryBytes
}
