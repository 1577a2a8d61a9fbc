package paillier

import (
	"math/big"

	"pisa/internal/fbexp"
)

// powerTableHeight is the comb height of a PowerTable. One block of
// height h costs 2^h - 1 entries of 2n bits and 2*ceil(bits/h) - 2
// half-width operations per scalar, against the ≈ 130 of the same
// operations ScalarMul's sliding window needs. At a 2048-bit n and
// 100-bit scalars h = 3 is 3 584 B and 66 operations — 0.46 of
// ScalarMul's time when measured (0.28 against 0.61 ms; 0.40 while
// ScalarMul was big.Int.Exp), built for about as much; h = 4 is 48
// operations from 7 680 B. Tables live as long as the cache entries they
// serve, and the resident set grows by about twice their bytes, so the
// height is the largest that keeps the benchmark's cache-hit workloads
// inside their memory ceiling (EXPERIMENTS.md "Request path after
// PR 19"), not the fastest.
const powerTableHeight = 3

// PowerTable is a ciphertext with its powers tabled, for a caller that
// will scale the same ciphertext by many scalars of a known width (the
// SDC's cached indicators, blinded by a fresh alpha per serving). It is
// the fixed-base engine of the nonce path (internal/fbexp) on another
// base, at the smallest geometry: one block. Immutable after
// construction; safe for concurrent ScalarMul.
type PowerTable struct {
	pk  *PublicKey
	tab *fbexp.Table
}

// PowerTable tables ct for scalars of up to expBits bits. The build
// costs about half of one ScalarMul by such a scalar and a use under
// half, so it pays from the second use on. pk must be prepared (Prepare).
func (pk *PublicKey) PowerTable(ct *Ciphertext, expBits int) (*PowerTable, error) {
	if err := pk.validate(ct); err != nil {
		return nil, err
	}
	tab, err := fbexp.New(ct.C, pk.mod, powerTableHeight, expBits, 1<<powerTableHeight-1)
	if err != nil {
		return nil, err
	}
	return &PowerTable{pk: pk, tab: tab}, nil
}

// ScalarMul returns what pk.ScalarMul(k, ct) returns for the tabled
// ciphertext, bit for bit: |k| within the table's width takes the comb,
// anything wider the general loop ScalarMul itself runs, and a negative k
// inverts the power — the unique inverse mod n^2, which is also the
// power of the inverse — failing, like ScalarMul, exactly when ct is
// not a unit.
func (t *PowerTable) ScalarMul(k *big.Int) (*Ciphertext, error) {
	if k.Sign() >= 0 {
		return &Ciphertext{C: t.tab.Exp(k)}, nil
	}
	c := t.tab.Exp(new(big.Int).Neg(k))
	if c.ModInverse(c, t.pk.nSquared) == nil {
		return nil, ErrInvalidCiphertext
	}
	return &Ciphertext{C: c}, nil
}

// SizeBytes reports the table's memory footprint.
func (t *PowerTable) SizeBytes() int { return t.tab.SizeBytes() }
