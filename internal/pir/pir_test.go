package pir

import (
	"bytes"
	"encoding/gob"
	mrand "math/rand"
	"testing"

	"pisa/internal/geo"
	"pisa/internal/propagation"
	"pisa/internal/watch"
)

// testWatchParams builds the same tiny deployment the pisa tests use:
// 5x4 grid of 10 m blocks, 3 channels.
func testWatchParams(t testing.TB) watch.Params {
	t.Helper()
	g, err := geo.NewGrid(5, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	return watch.Params{
		Channels:    3,
		Grid:        g,
		UnitsPerMW:  1e9,
		SUMaxEIRPmW: 4000,
		SMinPUmW:    1e-5,
		DeltaInt:    32,
		Secondary:   propagation.LogDistance{RefLossDB: 40, Exponent: 3.5},
		WorstCase:   propagation.LogDistance{RefLossDB: 60, Exponent: 4},
	}
}

func newTestDB(t *testing.T) *Database {
	t.Helper()
	db, err := NewDatabase(testWatchParams(t))
	if err != nil {
		t.Fatalf("NewDatabase: %v", err)
	}
	return db
}

// fetch runs the full client-side protocol against k copies of one
// database: build vectors, answer each, reconstruct.
func fetch(t *testing.T, replicas []*Database, b geo.BlockID) []byte {
	t.Helper()
	m := replicas[0].Meta()
	vecs, err := BuildVectors(nil, m.Blocks, len(replicas), b)
	if err != nil {
		t.Fatalf("BuildVectors: %v", err)
	}
	rows := make([][]byte, len(vecs))
	for i, v := range vecs {
		a, err := replicas[i].Answer(&Query{Sel: v})
		if err != nil {
			t.Fatalf("replica %d Answer: %v", i, err)
		}
		rows[i] = a.Row
	}
	row, err := Reconstruct(rows)
	if err != nil {
		t.Fatalf("Reconstruct: %v", err)
	}
	return row
}

// TestPIRMatchesOracle is the core correctness property: for every
// block, the k-server reconstruction of the bitmap row equals the
// direct row, and each bit equals the watch oracle's availability
// verdict.
func TestPIRMatchesOracle(t *testing.T) {
	wp := testWatchParams(t)
	oracle, err := watch.NewSystem(wp, nil)
	if err != nil {
		t.Fatal(err)
	}
	// k = 3 independent replicas, all fed the same PU churn.
	replicas := make([]*Database, 3)
	for i := range replicas {
		replicas[i], err = NewDatabase(wp)
		if err != nil {
			t.Fatal(err)
		}
	}
	// Register a PU on channel 1 at block 7, everywhere.
	sig := wp.Quantize(wp.SMinPUmW)
	reg := watch.Registration{Block: 7, Channel: 1, SignalUnits: sig}
	if err := oracle.UpdatePU("pu-1", reg); err != nil {
		t.Fatal(err)
	}
	u := &Update{PUID: "pu-1", Block: 7, Channel: 1, SignalUnits: sig}
	for _, r := range replicas {
		if err := r.ApplyUpdate(u); err != nil {
			t.Fatal(err)
		}
	}

	m := replicas[0].Meta()
	minEIRP := m.MinEIRPUnits
	for b := 0; b < m.Blocks; b++ {
		row := fetch(t, replicas, geo.BlockID(b))
		direct, err := replicas[0].Row(geo.BlockID(b))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(row, direct) {
			t.Fatalf("block %d: PIR row %x != direct row %x", b, row, direct)
		}
		for c := 0; c < m.Channels; c++ {
			maxEIRP, err := oracle.MaxEIRPUnits(c, geo.BlockID(b))
			if err != nil {
				t.Fatal(err)
			}
			want := maxEIRP >= minEIRP
			if got := BitmapHas(row, c); got != want {
				t.Errorf("block %d channel %d: bitmap says %v, oracle says %v", b, c, got, want)
			}
		}
	}
}

// TestVectorsXORToUnit checks the share algebra: the XOR of all k
// vectors is exactly the unit vector of the target block, padding
// bits clear.
func TestVectorsXORToUnit(t *testing.T) {
	for _, k := range []int{1, 2, 3, 5} {
		for _, blocks := range []int{1, 7, 8, 20, 600} {
			target := geo.BlockID(blocks - 1)
			vecs, err := BuildVectors(nil, blocks, k, target)
			if err != nil {
				t.Fatalf("k=%d blocks=%d: %v", k, blocks, err)
			}
			if len(vecs) != k {
				t.Fatalf("k=%d: got %d vectors", k, len(vecs))
			}
			acc := make([]byte, (blocks+7)/8)
			for _, v := range vecs {
				if len(v) != len(acc) {
					t.Fatalf("vector length %d, want %d", len(v), len(acc))
				}
				XORBytes(acc, v)
			}
			for b := 0; b < blocks; b++ {
				want := b == int(target)
				if got := acc[b/8]>>(b%8)&1 == 1; got != want {
					t.Fatalf("k=%d blocks=%d: XOR bit %d = %v, want %v", k, blocks, b, got, want)
				}
			}
			// Padding bits must be zero in every vector.
			if rem := blocks % 8; rem != 0 {
				for i, v := range vecs {
					if v[len(v)-1]>>rem != 0 {
						t.Fatalf("vector %d has padding bits set", i)
					}
				}
			}
		}
	}
}

// TestBuildVectorsRejects covers the argument validation.
func TestBuildVectorsRejects(t *testing.T) {
	cases := []struct {
		blocks, k int
		target    geo.BlockID
	}{
		{0, 2, 0}, {-1, 2, 0}, {10, 0, 0}, {10, -1, 0}, {10, 2, -1}, {10, 2, 10},
	}
	for _, c := range cases {
		if _, err := BuildVectors(nil, c.blocks, c.k, c.target); err == nil {
			t.Errorf("BuildVectors(%d, %d, %d) accepted", c.blocks, c.k, c.target)
		}
	}
}

// TestAnswerValidation checks the replica rejects malformed queries.
func TestAnswerValidation(t *testing.T) {
	db := newTestDB(t)
	m := db.Meta()
	good := make([]byte, m.SelBytes())
	if _, err := db.Answer(nil); err == nil {
		t.Error("nil query accepted")
	}
	if _, err := db.Answer(&Query{Sel: good[:len(good)-1]}); err == nil {
		t.Error("short vector accepted")
	}
	if _, err := db.Answer(&Query{Sel: append(good, 0)}); err == nil {
		t.Error("long vector accepted")
	}
	if _, err := db.Answer(&Query{Sel: good}); err != nil {
		t.Errorf("valid query rejected: %v", err)
	}
}

// TestVersionAdvancesOnUpdate checks answers carry a version that
// advances with every applied update, and that re-applying an update
// is accepted (the registration is a set).
func TestVersionAdvancesOnUpdate(t *testing.T) {
	db := newTestDB(t)
	v0 := db.Meta().Version
	if v0 == 0 {
		t.Fatal("fresh database has version 0; want >= 1 so clients can detect unset versions")
	}
	sig := testWatchParams(t).Quantize(1e-5)
	u := &Update{PUID: "pu-v", Block: 3, Channel: 0, SignalUnits: sig}
	if err := db.ApplyUpdate(u); err != nil {
		t.Fatal(err)
	}
	if v := db.Meta().Version; v != v0+1 {
		t.Fatalf("version after update = %d, want %d", v, v0+1)
	}
	if err := db.ApplyUpdate(u); err != nil {
		t.Fatalf("idempotent re-apply rejected: %v", err)
	}
	// Switch the PU off; availability must return to the baseline.
	off := &Update{PUID: "pu-v", Block: 3, Channel: -1}
	if err := db.ApplyUpdate(off); err != nil {
		t.Fatal(err)
	}
	fresh := newTestDB(t)
	for b := 0; b < db.Meta().Blocks; b++ {
		got, err := db.Row(geo.BlockID(b))
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Row(geo.BlockID(b))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("block %d row differs after PU off: %x vs %x", b, got, want)
		}
	}
}

// TestSharesLookRandom is a smoke test of the privacy core: any k-1
// of the k vectors are uniformly random, so across many fetches of
// the SAME block, each single replica's vector should select about
// half the blocks with no bias toward the target.
func TestSharesLookRandom(t *testing.T) {
	const blocks, trials = 64, 2000
	target := geo.BlockID(17)
	counts := make([]int, blocks)
	for i := 0; i < trials; i++ {
		vecs, err := BuildVectors(nil, blocks, 2, target)
		if err != nil {
			t.Fatal(err)
		}
		// Look at the last share (the corrected one) — it must still be
		// marginally uniform because the first share masks it.
		v := vecs[1]
		for b := 0; b < blocks; b++ {
			counts[b] += int(v[b/8] >> (b % 8) & 1)
		}
	}
	for b, n := range counts {
		// Binomial(2000, 0.5): mean 1000, sd ~22. Flag > 6 sigma.
		if n < 1000-135 || n > 1000+135 {
			t.Errorf("block %d selected %d/%d times; share vector is biased", b, n, trials)
		}
	}
	if counts[target] == trials || counts[target] == 0 {
		t.Errorf("target block deterministically visible in a single share")
	}
}

// TestReconstructRejects covers mismatched answer lengths.
func TestReconstructRejects(t *testing.T) {
	if _, err := Reconstruct(nil); err == nil {
		t.Error("empty reconstruct accepted")
	}
	if _, err := Reconstruct([][]byte{{1, 2}, {1}}); err == nil {
		t.Error("ragged rows accepted")
	}
	row, err := Reconstruct([][]byte{{0xF0}, {0x0F}})
	if err != nil || row[0] != 0xFF {
		t.Errorf("Reconstruct = %x, %v", row, err)
	}
}

// roundTrip gob-encodes and decodes a value, as one envelope field
// would carry it.
func roundTrip(t *testing.T, in, out any) error {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(in); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return gob.NewDecoder(&buf).Decode(out)
}

// TestGobRoundTrip checks well-formed frames survive gob.
func TestGobRoundTrip(t *testing.T) {
	q := &Query{Sel: []byte{1, 2, 3}}
	var q2 Query
	if err := roundTrip(t, q, &q2); err != nil {
		t.Fatalf("query: %v", err)
	}
	if !bytes.Equal(q2.Sel, q.Sel) {
		t.Errorf("query round-trip mismatch: %+v", q2)
	}
	a := &Answer{Version: 42, Row: []byte{9, 8}}
	var a2 Answer
	if err := roundTrip(t, a, &a2); err != nil {
		t.Fatalf("answer: %v", err)
	}
	if a2.Version != 42 || !bytes.Equal(a2.Row, a.Row) {
		t.Errorf("answer round-trip mismatch: %+v", a2)
	}
	u := &Update{PUID: "pu-9", Block: 5, Channel: -1, SignalUnits: 0}
	var u2 Update
	if err := roundTrip(t, u, &u2); err != nil {
		t.Fatalf("update: %v", err)
	}
	if u2 != *u {
		t.Errorf("update round-trip mismatch: %+v", u2)
	}
}

// TestGobTruncatedFrames checks byte-level corruption surfaces as an
// error, not a panic.
func TestGobTruncatedFrames(t *testing.T) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&Query{Sel: []byte{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for cut := 1; cut < len(raw); cut += 7 {
		var q Query
		if err := gob.NewDecoder(bytes.NewReader(raw[:cut])).Decode(&q); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// TestAnswerScanOblivious checks the XOR scan output over a seeded
// random vector equals the naive row-by-row XOR (catches mask bugs).
func TestAnswerScanOblivious(t *testing.T) {
	db := newTestDB(t)
	m := db.Meta()
	rng := mrand.New(mrand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		sel := make([]byte, m.SelBytes())
		for i := range sel {
			sel[i] = byte(rng.Intn(256))
		}
		if rem := m.Blocks % 8; rem != 0 {
			sel[len(sel)-1] &= byte(1<<rem) - 1
		}
		a, err := db.Answer(&Query{Sel: sel})
		if err != nil {
			t.Fatal(err)
		}
		want := make([]byte, m.RowBytes)
		for b := 0; b < m.Blocks; b++ {
			if sel[b/8]>>(b%8)&1 == 0 {
				continue
			}
			row, err := db.Row(geo.BlockID(b))
			if err != nil {
				t.Fatal(err)
			}
			XORBytes(want, row)
		}
		if !bytes.Equal(a.Row, want) {
			t.Fatalf("trial %d: scan %x != naive %x", trial, a.Row, want)
		}
	}
}

// TestMetricsHelpers exercises the obs glue (values are shared
// process-wide; only check they do not panic and counters move).
func TestMetricsHelpers(t *testing.T) {
	before := metrics().queries.Value()
	ObserveQuery(0)
	ObserveQueryError()
	if got := metrics().queries.Value(); got != before+1 {
		t.Errorf("queries counter = %d, want %d", got, before+1)
	}
}

var benchSink []byte

// BenchmarkAnswer measures the oblivious scan at paper scale (100
// channels, 600 blocks).
func BenchmarkAnswer(b *testing.B) {
	g, err := geo.NewGrid(30, 20, 100)
	if err != nil {
		b.Fatal(err)
	}
	wp := testWatchParams(b)
	wp.Grid = g
	wp.Channels = 100
	db, err := NewDatabase(wp)
	if err != nil {
		b.Fatal(err)
	}
	m := db.Meta()
	vecs, err := BuildVectors(nil, m.Blocks, 2, 0)
	if err != nil {
		b.Fatal(err)
	}
	q := &Query{Sel: vecs[0]}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := db.Answer(q)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = a.Row
	}
}
