package paillier

import (
	"errors"
	"fmt"
	"math/big"

	"pisa/internal/fbexp"
)

// powerTableHeight is the comb height of a PowerTable. One block of
// height h costs 2^h - 1 entries and 2*ceil(bits/h) - 2 modular
// operations per scalar, against the ≈ 130 of the same operations
// ScalarMul's sliding window needs. At a 2048-bit n and 100-bit scalars
// h = 3 is 66 operations from 7 entries: 3 584 B on fbexp's half-width
// kernel, 0.46 of ScalarMul's time (0.28 against 0.61 ms), and 4 424 B
// of Montgomery-form limbs on the lane kernel, where a pass raises eight
// tables in about half the time ScalarMulBatch raises eight cells
// without one. h = 4 is 48 operations from 15 entries, more than twice
// the bytes. Tables live as long as the cache entries they serve, and
// the resident set grows by about twice their bytes, so the height is
// the largest that keeps the benchmark's cache-hit workloads inside
// their memory ceiling (EXPERIMENTS.md "Request path after PR 19",
// "Tabled α on eight lanes"), not the fastest.
const powerTableHeight = 3

// maxTableBits is the widest scalar a PowerTable is built for: fbexp's
// bound, far above any blinding width.
const maxTableBits = 1 << 16

// LaneWidth is how many elements one pass of the lane kernel takes: a
// caller that spreads a batch call over workers cuts it into runs of
// this many.
const LaneWidth = laneWidth

// PowerTable is a ciphertext with its powers tabled, for a caller that
// will scale the same ciphertext by many scalars of a known width (the
// SDC's cached indicators, blinded by a fresh alpha per serving). It is
// a Lim–Lee comb of one block: on a CPU with the lane kernel a lane comb
// (lanecomb.go), which ScalarMulTables raises eight tables to a kernel
// pass; elsewhere, and for a table built while the kernel is switched
// off (SetLaneKernel), the fbexp comb of the nonce path. A table keeps
// its kind. Immutable after construction; safe for concurrent use.
type PowerTable struct {
	ct   *Ciphertext // the tabled ciphertext, for scalars wider than the table
	fb   *fbexp.Table
	lane *laneComb
}

// PowerTables tables every ciphertext of cts for scalars of up to
// expBits bits, with the kind of table this process builds (PowerTable).
// Lane tables are built in runs of laneWidth, each one chain of kernel
// squarings with every lane carrying its own ciphertext; fbexp tables
// one by one. A table costs about as much to build as one exponentiation
// from it, so it pays from the second use on. A ciphertext outside
// Z_{n^2} fails the call with a BatchError naming it. It runs on the
// caller's goroutine; pk must be prepared (Prepare).
func (pk *PublicKey) PowerTables(cts []*Ciphertext, expBits int) ([]*PowerTable, error) {
	fail := func(i int, err error) error { return &BatchError{Op: "table", Index: i, Err: err} }
	if expBits < 1 || expBits > maxTableBits {
		return nil, fmt.Errorf("paillier: power table width %d outside [1, %d]", expBits, maxTableBits)
	}
	for i, ct := range cts {
		if err := pk.validate(ct); err != nil {
			return nil, fail(i, err)
		}
	}
	out := make([]*PowerTable, len(cts))
	lm := pk.squareLanes()
	if lm == nil {
		for i, ct := range cts {
			fb, err := fbexp.New(ct.C, pk.mod, powerTableHeight, expBits, 1<<powerTableHeight-1)
			if err != nil {
				return nil, fail(i, err)
			}
			out[i] = &PowerTable{ct: ct, fb: fb}
		}
		return out, nil
	}
	for lo := 0; lo < len(cts); lo += laneWidth {
		hi := min(lo+laneWidth, len(cts))
		bases := make([]*big.Int, hi-lo)
		for i := lo; i < hi; i++ {
			bases[i-lo] = cts[i].C
		}
		for l, c := range newLaneCombs(lm, bases, powerTableHeight, expBits, 1<<powerTableHeight-1, 1) {
			out[lo+l] = &PowerTable{ct: cts[lo+l], lane: c}
		}
	}
	return out, nil
}

// errNilTable is ScalarMulTables' error for a missing table.
var errNilTable = errors.New("nil power table")

// ScalarMulTables returns what ScalarMul(ks[i], ct) returns for the
// ciphertext ct that tabs[i] tables, for every i, bit for bit, or the
// error of the first element ScalarMul refuses, with its index: a
// non-unit under a negative scalar. Every table must be one of pk's
// (PowerTables). Lane tables whose |k| fits their width are raised in
// runs of laneWidth, one kernel pass per run however short, each lane
// gathering its entries from its own table; the power of a negative k
// is then inverted, as ScalarMulBatch does. fbexp tables, and scalars
// wider than their table (the general exponentiation ScalarMul runs),
// take one exponentiation each. It runs on the caller's goroutine.
func (pk *PublicKey) ScalarMulTables(ks []*big.Int, tabs []*PowerTable) ([]*Ciphertext, error) {
	if len(ks) != len(tabs) {
		return nil, fmt.Errorf("paillier: scalar-mul batch of %d scalars for %d tables", len(ks), len(tabs))
	}
	pk.ensureCache()
	out := make([]*Ciphertext, len(ks))
	bad, badErr := len(ks), error(nil)
	note := func(i int, err error) {
		if i < bad {
			bad, badErr = i, err
		}
	}
	var lanes []int // the elements that take the kernel
	for i, t := range tabs {
		switch {
		case t == nil:
			note(i, errNilTable)
		case t.lane != nil && ks[i].BitLen() <= t.lane.maxBits:
			lanes = append(lanes, i)
		default:
			var err error
			if out[i], err = t.scalarMul(pk, ks[i]); err != nil {
				note(i, err)
			}
		}
	}
	for lo := 0; lo < len(lanes); lo += laneWidth {
		run := lanes[lo:min(lo+laneWidth, len(lanes))]
		var combs [laneWidth]*laneComb
		var es [laneWidth]*big.Int
		for l, i := range run {
			combs[l], es[l] = tabs[i].lane, abs(ks[i])
		}
		ys := combExp(combs[:len(run)], es[:len(run)])
		laneRuns.table.add(len(run))
		for l, i := range run {
			var err error
			if out[i], err = pk.signedPower(ks[i], ys[l]); err != nil {
				note(i, err)
			}
		}
	}
	if badErr != nil {
		return nil, &BatchError{Op: "scalar-mul", Index: bad, Err: badErr}
	}
	return out, nil
}

// scalarMul is one element of ScalarMulTables off the kernel: the fbexp
// comb, which leaves it for the general exponentiation past its width,
// or ScalarMul itself for a lane table's too-wide scalar.
func (t *PowerTable) scalarMul(pk *PublicKey, k *big.Int) (*Ciphertext, error) {
	if t.fb == nil {
		return pk.ScalarMul(k, t.ct)
	}
	return pk.signedPower(k, t.fb.Exp(abs(k)))
}

// SizeBytes reports the table's memory footprint: its entries.
func (t *PowerTable) SizeBytes() int {
	if t.lane != nil {
		return t.lane.sizeBytes()
	}
	return t.fb.SizeBytes()
}
