package paillier

import (
	"bytes"
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"math/bits"
	mrand "math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"pisa/internal/fbexp"
)

// requireLanes skips a test of the lane kernel where it is not built.
func requireLanes(t testing.TB) {
	t.Helper()
	if !laneCPU {
		t.Skip("lane kernel not available: the CPU lacks AVX512F/AVX512IFMA, the OS does not save ZMM state, or this is a purego build")
	}
}

// withLanes runs the lane paths on or off (SetLaneKernel) until the
// test ends.
func withLanes(t testing.TB, on bool) {
	old := SetLaneKernel(on)
	t.Cleanup(func() { SetLaneKernel(old) })
}

// laneKeys caches keys per modulus size across the lane tests.
var laneKeys = map[int]*PrivateKey{}

func laneKey(t testing.TB, bits int) *PrivateKey {
	t.Helper()
	if sk, ok := laneKeys[bits]; ok {
		return sk
	}
	sk, err := GenerateKey(rand.Reader, bits)
	if err != nil {
		t.Fatal(err)
	}
	laneKeys[bits] = sk
	return sk
}

// laneCiphertexts returns count ciphertexts of plaintexts 7i - 100
// under sk. Those at the indices in foreign carry a nonce r^n outside
// <H>, so their residues finish on the full exponent.
func laneCiphertexts(t testing.TB, sk *PrivateKey, count int, foreign map[int]bool) ([]*Ciphertext, []*big.Int) {
	t.Helper()
	cts := make([]*Ciphertext, count)
	ms := make([]*big.Int, count)
	for i := range cts {
		ms[i] = big.NewInt(int64(7*i - 100))
		if foreign[i] {
			cts[i] = foreignCiphertext(t, sk.Public(), ms[i])
			continue
		}
		var err error
		if cts[i], err = sk.Encrypt(rand.Reader, ms[i]); err != nil {
			t.Fatal(err)
		}
	}
	return cts, ms
}

// decryptCounts is what a decryption call did: the short and full
// decryptions and the kernel lanes it counted, the plaintexts it
// returned and its error.
type decryptCounts struct {
	short, full, used, padding uint64
	ms                         []*big.Int
	err                        error
}

func counted(fn func() ([]*big.Int, error)) decryptCounts {
	s0, f0 := Decrypts()
	u0, p0 := laneRuns.decrypt.used.Load(), laneRuns.decrypt.padding.Load()
	ms, err := fn()
	s1, f1 := Decrypts()
	return decryptCounts{
		short: s1 - s0, full: f1 - f0,
		used: laneRuns.decrypt.used.Load() - u0, padding: laneRuns.decrypt.padding.Load() - p0,
		ms: ms, err: err,
	}
}

// decryptLoop is the reference: Decrypt element by element, stopping
// at the first error as DecryptBatch with one worker does.
func decryptLoop(sk *PrivateKey, cts []*Ciphertext) ([]*big.Int, error) {
	out := make([]*big.Int, len(cts))
	for i, ct := range cts {
		m, err := sk.Decrypt(ct)
		if err != nil {
			return nil, fmt.Errorf("paillier: decrypt batch element %d: %w", i, err)
		}
		out[i] = m
	}
	return out, nil
}

// wantLanes is the kernel lanes a one-worker DecryptBatch of size
// ciphertexts, all valid, counts: every run of at least laneMinRun.
func wantLanes(size int) (used, padding uint64) {
	for lo := 0; lo < size; lo += laneWidth {
		if run := min(size-lo, laneWidth); run >= laneMinRun {
			used += uint64(run)
			padding += uint64(laneWidth - run)
		}
	}
	return used, padding
}

// TestDecryptBatchLanesMatchLoop holds DecryptBatch, on the lane path
// and with it switched off, to Decrypt element by element: plaintexts
// and short/full counts, for every batch size from 1 to 33 (full runs,
// padded runs and runs below laneMinRun), with foreign nonces in full
// and in padded runs.
func TestDecryptBatchLanesMatchLoop(t *testing.T) {
	keyBits := []int{576, 768, 2048}
	if testing.Short() {
		keyBits = keyBits[:2]
	}
	// 3 sits in the first full run; 17 in the third run, padded for
	// sizes 18 to 23; 32 alone in the last run of size 33.
	foreign := map[int]bool{3: true, 17: true, 32: true}
	for _, bits := range keyBits {
		sk := laneKey(t, bits)
		cts, ms := laneCiphertexts(t, sk, 33, foreign)
		for _, lanes := range []bool{true, false} {
			t.Run(fmt.Sprintf("bits=%d/lanes=%v", bits, lanes), func(t *testing.T) {
				if lanes {
					requireLanes(t)
				}
				withLanes(t, lanes)
				for size := 1; size <= len(cts); size++ {
					batch := cts[:size]
					want := counted(func() ([]*big.Int, error) { return decryptLoop(sk, batch) })
					for _, workers := range []int{1, 3} {
						got := counted(func() ([]*big.Int, error) { return sk.DecryptBatch(batch, workers) })
						if got.err != nil {
							t.Fatalf("size %d, workers %d: %v", size, workers, got.err)
						}
						for i := range batch {
							if got.ms[i].Cmp(want.ms[i]) != 0 || got.ms[i].Cmp(ms[i]) != 0 {
								t.Fatalf("size %d, workers %d, element %d: got %s, loop %s, want %s",
									size, workers, i, got.ms[i], want.ms[i], ms[i])
							}
						}
						if got.short != want.short || got.full != want.full {
							t.Fatalf("size %d, workers %d: counted %d short, %d full; the loop %d, %d",
								size, workers, got.short, got.full, want.short, want.full)
						}
						wantUsed, wantPadding := uint64(0), uint64(0)
						if lanes {
							wantUsed, wantPadding = wantLanes(size)
						}
						if got.used != wantUsed || got.padding != wantPadding {
							t.Fatalf("size %d, workers %d: lanes used %d, padding %d; want %d, %d",
								size, workers, got.used, got.padding, wantUsed, wantPadding)
						}
					}
				}
			})
		}
	}
}

// TestDecryptBatchLanesFirstError: an invalid ciphertext anywhere in a
// run fails the batch with its index and ErrInvalidCiphertext, and a
// one-worker batch has decrypted and counted exactly the ciphertexts
// before it, as the loop over Decrypt has — on the lane path and off
// it.
func TestDecryptBatchLanesFirstError(t *testing.T) {
	sk := laneKey(t, 576)
	cts, _ := laneCiphertexts(t, sk, 33, map[int]bool{1: true, 10: true, 20: true})
	invalid := []*Ciphertext{nil, {}, {C: new(big.Int)}, {C: sk.NSquared()}}
	for _, lanes := range []bool{true, false} {
		t.Run(fmt.Sprintf("lanes=%v", lanes), func(t *testing.T) {
			if lanes {
				requireLanes(t)
			}
			withLanes(t, lanes)
			for k, bad := range []int{0, 1, 2, 5, 8, 9, 10, 15, 16, 21, 32} {
				batch := append([]*Ciphertext(nil), cts...)
				batch[bad] = invalid[k%len(invalid)]
				want := counted(func() ([]*big.Int, error) { return decryptLoop(sk, batch) })
				got := counted(func() ([]*big.Int, error) { return sk.DecryptBatch(batch, 1) })
				if got.ms != nil || !errors.Is(got.err, ErrInvalidCiphertext) ||
					got.err.Error() != want.err.Error() {
					t.Fatalf("invalid element %d: got %v, %v; want error %v", bad, got.ms, got.err, want.err)
				}
				if got.short != want.short || got.full != want.full {
					t.Fatalf("invalid element %d: counted %d short, %d full; the loop %d, %d",
						bad, got.short, got.full, want.short, want.full)
				}
				if lanes {
					if u, _ := wantLanes(bad); got.used != u {
						t.Fatalf("invalid element %d: %d lanes used, want %d", bad, got.used, u)
					}
				}
				// More workers: the same error for the only invalid element.
				if _, err := sk.DecryptBatch(batch, 4); err == nil || err.Error() != want.err.Error() {
					t.Fatalf("invalid element %d, 4 workers: %v, want %v", bad, err, want.err)
				}
			}
		})
	}
}

// FuzzLaneExp holds every lane of the kernel to big.Int.Exp: odd
// moduli of 64 to 4 160 bits (a 2048-bit key's n^2 is 4 096), exponents
// of 0 to 300 bits, one shared by every lane (DecryptBatch's runs) or
// one per lane of different widths (ScalarMulBatch's), and bases 0, 1,
// m-1, m, beyond m and arbitrary, in full and in short runs.
func FuzzLaneExp(f *testing.F) {
	ones := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = 0xff
		}
		return b
	}
	f.Add(ones(256), uint16(2048-64), ones(32), uint16(256), []byte{3}, uint8(7))
	f.Add(ones(263), uint16(2100-64), ones(38), uint16(300), ones(300), uint8(0))
	f.Add([]byte{1}, uint16(0), []byte{}, uint16(0), []byte{}, uint8(3))
	f.Add([]byte{0x80, 0, 0, 0, 0, 0, 0, 0, 1}, uint16(1), []byte{1}, uint16(1), ones(9), uint8(5))
	f.Add(ones(96), uint16(768-64), ones(32), uint16(255), ones(100), uint8(1))
	f.Add(ones(512), uint16(4096-64), ones(13), uint16(100), ones(512), uint8(2))
	f.Add(ones(520), uint16(4160-64), ones(38), uint16(300), ones(520), uint8(6))
	f.Fuzz(func(t *testing.T, mRaw []byte, mBits uint16, eRaw []byte, eBits uint16, xRaw []byte, lanes uint8) {
		requireLanes(t)
		truncate := func(raw []byte, bits int) *big.Int {
			x := new(big.Int).SetBytes(raw)
			return x.And(x, new(big.Int).Sub(new(big.Int).Lsh(one, uint(bits)), one))
		}
		bits := 64 + int(mBits)%(4160-64+1)
		m := truncate(mRaw, bits)
		m.SetBit(m, bits-1, 1).SetBit(m, 0, 1)
		e := truncate(eRaw, int(eBits)%301)
		// Lane l's own exponent: e shifted by 5l bits and cut to a width
		// of its own, so that lanes differ in their windows and in their
		// lengths, and one of them is 0 or 1 for most inputs.
		own := make([]*big.Int, laneWidth)
		shared := make([]*big.Int, laneWidth)
		for l := range own {
			own[l] = truncate(new(big.Int).Rsh(e, uint(5*l)).Bytes(), (int(eBits)+37*l)%301)
			shared[l] = e
		}
		x := new(big.Int).SetBytes(xRaw)
		xs := []*big.Int{
			new(big.Int), big.NewInt(1), new(big.Int).Sub(m, one), new(big.Int).Set(m),
			new(big.Int).Add(m, x), x, new(big.Int).Mod(x, m), new(big.Int).Mul(x, x),
		}
		lm := newLaneModulus(m)
		if lm == nil {
			t.Fatalf("no lane modulus for an odd %d-bit m", bits)
		}
		cut := int(lanes) % len(xs)
		for _, run := range []struct{ xs, es []*big.Int }{
			{xs, shared}, {xs[cut:], shared[cut:]}, {xs, own}, {xs[cut:], own[cut:]},
		} {
			got := lm.exp(run.xs, run.es)
			for l, xl := range run.xs {
				if want := new(big.Int).Exp(xl, run.es[l], m); got[l].Cmp(want) != 0 {
					t.Fatalf("lane %d of %d: %x^%x mod %x = %x, want %x", l, len(run.xs), xl, run.es[l], m, got[l], want)
				}
			}
		}
	})
}

// FuzzLaneTable holds the per-lane gather of combExp to big.Int.Exp:
// eight bases — 0, 1, m-1, m, beyond m and arbitrary — each with a comb
// of its own, built in one chain (newLaneCombs), raised to an exponent
// of each lane's own, in a full run, a short one and with one comb in
// every lane (laneComb.exp), over odd moduli of 64 to 4 160 bits, comb
// heights 1 to 8, one block or several, and exponents of 0 up to the
// combs' width of 1 to 300 bits.
func FuzzLaneTable(f *testing.F) {
	ones := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = 0xff
		}
		return b
	}
	f.Add(ones(512), uint16(4096-64), ones(300), ones(13), uint16(99), uint8(2), uint16(6), uint8(3))
	f.Add(ones(96), uint16(768-64), ones(100), ones(38), uint16(255), uint8(7), uint16(2815), uint8(0))
	f.Add([]byte{1}, uint16(0), []byte{}, []byte{}, uint16(0), uint8(0), uint16(0), uint8(7))
	f.Add(ones(520), uint16(4160-64), ones(520), ones(38), uint16(299), uint8(4), uint16(44), uint8(5))
	f.Fuzz(func(t *testing.T, mRaw []byte, mBits uint16, xRaw, eRaw []byte, eBits uint16, height uint8, entries uint16, lanes uint8) {
		requireLanes(t)
		truncate := func(raw []byte, bits int) *big.Int {
			x := new(big.Int).SetBytes(raw)
			return x.And(x, new(big.Int).Sub(new(big.Int).Lsh(one, uint(bits)), one))
		}
		bits := 64 + int(mBits)%(4160-64+1)
		m := truncate(mRaw, bits)
		m.SetBit(m, bits-1, 1).SetBit(m, 0, 1)
		window := 1 + int(height)%8
		maxBits := 1 + int(eBits)%300
		budget := 1 + int(entries)%600
		x := new(big.Int).SetBytes(xRaw)
		xs := []*big.Int{
			new(big.Int), big.NewInt(1), new(big.Int).Sub(m, one), new(big.Int).Set(m),
			new(big.Int).Add(m, x), x, new(big.Int).Mod(x, m), new(big.Int).Mul(x, x),
		}
		// Lane l's exponent: e shifted by 7l bits and cut to the combs'
		// width, so that lanes differ in every window.
		e := new(big.Int).SetBytes(eRaw)
		es := make([]*big.Int, laneWidth)
		for l := range es {
			es[l] = truncate(new(big.Int).Rsh(e, uint(7*l)).Bytes(), maxBits)
		}
		lm := newLaneModulus(m)
		if lm == nil {
			t.Fatalf("no lane modulus for an odd %d-bit m", bits)
		}
		combs := newLaneCombs(lm, xs, window, maxBits, budget, 2)
		cut := int(lanes) % laneWidth
		check := func(what string, got, xs, es []*big.Int) {
			for l := range got {
				if want := new(big.Int).Exp(xs[l], es[l], m); got[l].Cmp(want) != 0 {
					t.Fatalf("%s, lane %d of %d, height %d, %d bits, budget %d: %x^%x mod %x = %x, want %x",
						what, l, len(got), window, maxBits, budget, xs[l], es[l], m, got[l], want)
				}
			}
		}
		check("full run", combExp(combs, es), xs, es)
		check("short run", combExp(combs[cut:], es[cut:]), xs[cut:], es[cut:])
		same := make([]*big.Int, laneWidth-cut)
		for l := range same {
			same[l] = xs[cut]
		}
		check("one comb", combs[cut].exp(es[cut:]), same, es[cut:])
	})
}

// TestLaneRunsReuseScratch: a lane run takes its working memory from its
// modulus's pool, so that a run of eight 2048-bit cells, with tables or
// without, allocates little more than its eight results — not the lane
// vectors (96 KiB for ScalarMulBatch, 15 KiB for a comb) it allocated
// per run before. The garbage collector is off while it measures, so the
// pool keeps what the runs put back.
func TestLaneRunsReuseScratch(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	requireLanes(t)
	withLanes(t, true)
	sk := laneKey(t, 2048)
	pk := sk.Public()
	ks, cts := laneCells(t, sk, laneWidth)
	for _, k := range ks {
		k.Abs(k) // no inversions, whose allocations are not the run's
	}
	tabs, err := pk.PowerTables(cts, 100)
	if err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	scratch := uint64(8 * laneScratchVectors * laneWidth * pk.squareLanes().n)
	for _, run := range []struct {
		name string
		fn   func() error
	}{
		{"ScalarMulBatch", func() error { _, err := pk.ScalarMulBatch(ks, cts); return err }},
		{"ScalarMulTables", func() error { _, err := pk.ScalarMulTables(ks, tabs); return err }},
	} {
		if err := run.fn(); err != nil { // fills the pool
			t.Fatal(err)
		}
		const runs = 16
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			if err := run.fn(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > scratch/8 {
			t.Errorf("%s of eight cells allocates %d B per run; its scratch is %d B", run.name, perRun, scratch)
		}
	}
}

// TestLaneCombMatchesFbexp holds the lane comb to fbexp's comb of the
// same base and geometry, lane by lane, at the nonce tables' geometry
// (height 8, 256-bit exponents, 11 blocks) and at a short-rowed one:
// exponents 0, 1, 2^256 - 1, single bits and random ones, in full and
// in short runs, and its size to 2 805 entries of one limb per word.
func TestLaneCombMatchesFbexp(t *testing.T) {
	requireLanes(t)
	sizes := []int{256, 768, 2048}
	if testing.Short() {
		sizes = sizes[:2]
	}
	for _, keyBits := range sizes {
		sk := laneKey(t, keyBits)
		nn := sk.NSquared()
		lm := newLaneModulus(nn)
		for _, g := range []struct{ window, maxBits, entries int }{
			{DefaultFastExpWindow, DefaultShortExpBits, fastExpEntries},
			{5, 97, 40},
		} {
			comb := newLaneCombs(lm, []*big.Int{sk.H}, g.window, g.maxBits, g.entries, 2)[0]
			fb, err := fbexp.New(sk.H, sk.mod, g.window, g.maxBits, g.entries)
			if err != nil {
				t.Fatal(err)
			}
			entries := fb.SizeBytes() / (2 * len(sk.N.Bits()) * (bits.UintSize / 8))
			if got := comb.sizeBytes(); got != 8*entries*lm.n {
				t.Errorf("%d bits, %+v: lane comb %d B, want %d entries of %d words", keyBits, g, got, entries, lm.n)
			}
			top := new(big.Int).Sub(new(big.Int).Lsh(one, uint(g.maxBits)), one)
			ss := []*big.Int{new(big.Int), big.NewInt(1), top, big.NewInt(2)}
			for i := 0; i < g.maxBits; i += 29 {
				ss = append(ss, new(big.Int).Lsh(one, uint(i)))
			}
			for len(ss) < 3*laneWidth+3 {
				s, err := rand.Int(rand.Reader, new(big.Int).Add(top, one))
				if err != nil {
					t.Fatal(err)
				}
				ss = append(ss, s)
			}
			for lo := 0; lo < len(ss); lo += laneWidth {
				run := ss[lo:min(lo+laneWidth, len(ss))]
				if lo == laneWidth {
					run = run[:1]
				}
				got := comb.exp(run)
				for l, s := range run {
					if want := fb.Exp(s); got[l].Cmp(want) != 0 {
						t.Fatalf("%d bits, %+v: H^%x: lane %d of %d differs from fbexp", keyBits, g, s, l, len(run))
					}
				}
			}
		}
	}
}

// TestDecryptRefusesNonUnit: a value that validate lets through but
// that shares a prime with n — a multiple of p or of q, n itself — is no
// ciphertext, and Decrypt refuses it with ErrInvalidCiphertext instead
// of returning a plaintext; DecryptBatch names its index, on the lane
// path and off it, in a full run and in a run below laneMinRun.
func TestDecryptRefusesNonUnit(t *testing.T) {
	sk := laneKey(t, 256)
	p, q := sk.p.d, sk.q.d
	cts, _ := laneCiphertexts(t, sk, 17, nil)
	for _, c := range []*big.Int{
		new(big.Int).Set(p), new(big.Int).Set(q), new(big.Int).Set(sk.N),
		new(big.Int).Mul(p, p), new(big.Int).Mul(q, big.NewInt(3)),
		new(big.Int).Mul(p, cts[0].C).Mod(new(big.Int).Mul(p, cts[0].C), sk.NSquared()),
	} {
		bad := &Ciphertext{C: c}
		if m, err := sk.Decrypt(bad); !errors.Is(err, ErrInvalidCiphertext) {
			t.Fatalf("Decrypt(%x): %v, %v; want ErrInvalidCiphertext", c, m, err)
		}
		for _, lanes := range []bool{true, false} {
			if lanes && !laneCPU {
				continue
			}
			withLanes(t, lanes)
			for _, at := range []int{5, 16} { // inside the first run; alone in the last
				batch := append([]*Ciphertext(nil), cts...)
				batch[at] = bad
				_, err := sk.DecryptBatch(batch, 1)
				var be *BatchError
				if !errors.As(err, &be) || be.Index != at || !errors.Is(err, ErrInvalidCiphertext) {
					t.Fatalf("lanes=%v: DecryptBatch with %x at %d: %v", lanes, c, at, err)
				}
			}
		}
	}
}

// laneCells returns count ciphertexts under sk and a 100-bit scalar for
// each, every third one negative.
func laneCells(t testing.TB, sk *PrivateKey, count int) ([]*big.Int, []*Ciphertext) {
	t.Helper()
	cts, _ := laneCiphertexts(t, sk, count, nil)
	ks := make([]*big.Int, count)
	for i := range ks {
		var err error
		if ks[i], err = RandomSigned(rand.Reader, 100, false); err != nil {
			t.Fatal(err)
		}
		if i%3 == 2 {
			ks[i].Neg(ks[i])
		}
	}
	return ks, cts
}

// TestScalarMulBatchMatchesScalarMul holds ScalarMulBatch, on the lane
// path and off it, to ScalarMul element by element for batches of 1 to
// 19 (full runs, padded ones and runs below scalarMinRun) with scalars 0,
// 1 and negative ones among them, and counts the kernel's lanes.
func TestScalarMulBatchMatchesScalarMul(t *testing.T) {
	for _, keyBits := range []int{256, 768} {
		sk := laneKey(t, keyBits)
		pk := sk.Public()
		ks, cts := laneCells(t, sk, 19)
		ks[1], ks[9] = big.NewInt(0), big.NewInt(1)
		for _, lanes := range []bool{true, false} {
			t.Run(fmt.Sprintf("bits=%d/lanes=%v", keyBits, lanes), func(t *testing.T) {
				if lanes {
					requireLanes(t)
				}
				withLanes(t, lanes)
				for size := 1; size <= len(cts); size++ {
					u0, p0 := laneRuns.scalarMul.used.Load(), laneRuns.scalarMul.padding.Load()
					got, err := pk.ScalarMulBatch(ks[:size], cts[:size])
					if err != nil {
						t.Fatalf("size %d: %v", size, err)
					}
					for i := range got {
						want, err := pk.ScalarMul(ks[i], cts[i])
						if err != nil {
							t.Fatal(err)
						}
						if !got[i].Equal(want) {
							t.Fatalf("size %d, element %d: batch differs from ScalarMul", size, i)
						}
					}
					var wantUsed, wantPadding uint64
					for lo := 0; lanes && lo < size; lo += laneWidth {
						if run := min(size-lo, laneWidth); run >= scalarMinRun {
							wantUsed += uint64(run)
							wantPadding += uint64(laneWidth - run)
						}
					}
					used, padding := laneRuns.scalarMul.used.Load()-u0, laneRuns.scalarMul.padding.Load()-p0
					if used != wantUsed || padding != wantPadding {
						t.Fatalf("size %d: lanes used %d, padding %d; want %d, %d", size, used, padding, wantUsed, wantPadding)
					}
				}
			})
		}
	}
}

// TestScalarMulBatchFirstError: an element ScalarMul refuses — outside
// Z_{n^2}, nil, or a non-unit under a negative scalar — fails the batch
// with its index and ScalarMul's error, in a full run and in a padded
// or short one, on the lane path and off it; a non-unit under a
// positive scalar is a product ScalarMul computes, and so does the
// batch.
func TestScalarMulBatchFirstError(t *testing.T) {
	sk := laneKey(t, 256)
	pk := sk.Public()
	ks, cts := laneCells(t, sk, 9)
	for i := range ks {
		ks[i].Abs(ks[i])
	}
	nonUnit := &Ciphertext{C: new(big.Int).Set(sk.p.d)}
	for _, lanes := range []bool{true, false} {
		if lanes && !laneCPU {
			continue
		}
		withLanes(t, lanes)
		for _, at := range []int{0, 3, 7, 8} {
			for _, bad := range []struct {
				ct  *Ciphertext
				neg bool
			}{{nil, false}, {&Ciphertext{C: sk.NSquared()}, false}, {nonUnit, true}} {
				batchK := append([]*big.Int(nil), ks...)
				batch := append([]*Ciphertext(nil), cts...)
				batch[at] = bad.ct
				if bad.neg {
					batchK[at] = new(big.Int).Neg(ks[at])
				}
				_, want := pk.ScalarMul(batchK[at], batch[at])
				_, err := pk.ScalarMulBatch(batchK, batch)
				var be *BatchError
				if want == nil || !errors.As(err, &be) || be.Index != at || !errors.Is(err, want) {
					t.Fatalf("lanes=%v: bad element at %d: %v; ScalarMul says %v", lanes, at, err, want)
				}
			}
			batch := append([]*Ciphertext(nil), cts...)
			batch[at] = nonUnit
			got, err := pk.ScalarMulBatch(ks, batch)
			if err != nil {
				t.Fatalf("lanes=%v: non-unit at %d under a positive scalar: %v", lanes, at, err)
			}
			if want, _ := pk.ScalarMul(ks[at], nonUnit); !got[at].Equal(want) {
				t.Fatalf("lanes=%v: non-unit at %d: batch differs from ScalarMul", lanes, at)
			}
		}
	}
}

// TestNonceBatchesLanesMatchScalar: with one seeded source, the lane
// comb and fbexp's give the same NewNonceBatch and EncryptBatch at any
// worker count, for runs of 1, 7, 8, 9 and 17 (the s are drawn in index
// order before any is raised), each on a key object of its own built in
// its mode; the lane comb counts its lanes, and every nonce is H^s.
func TestNonceBatchesLanesMatchScalar(t *testing.T) {
	sk := laneKey(t, 768)
	ms := make([]*big.Int, 17)
	for i := range ms {
		ms[i] = big.NewInt(int64(31*i - 200))
	}
	type result struct{ nonces, cts [][]byte }
	draw := func(t *testing.T, lanes bool, count, workers int) result {
		withLanes(t, lanes)
		pk := (&PublicKey{N: sk.N, H: sk.H}).Prepare()
		nonces, err := pk.NewNonceBatch(mrand.New(mrand.NewSource(int64(count))), count, workers)
		if err != nil {
			t.Fatal(err)
		}
		cts, err := pk.EncryptBatch(mrand.New(mrand.NewSource(int64(count))), ms[:count], workers)
		if err != nil {
			t.Fatal(err)
		}
		var r result
		for i := range nonces {
			r.nonces = append(r.nonces, nonces[i].rn.Bytes())
			r.cts = append(r.cts, cts[i].C.Bytes())
			if m, err := sk.Decrypt(cts[i]); err != nil || m.Cmp(ms[i]) != 0 {
				t.Fatalf("EncryptBatch element %d decrypts to %v, %v; want %v", i, m, err, ms[i])
			}
		}
		return r
	}
	for _, count := range []int{1, 7, 8, 9, 17} {
		want := draw(t, false, count, 1)
		src := mrand.New(mrand.NewSource(int64(count)))
		for i := range want.nonces {
			s, err := drawShortExp(src)
			if err != nil {
				t.Fatal(err)
			}
			if h := new(big.Int).Exp(sk.H, s, sk.NSquared()); !bytes.Equal(h.Bytes(), want.nonces[i]) {
				t.Fatalf("count %d: nonce %d is not H^s for the %d-th s drawn", count, i, i)
			}
		}
		for _, lanes := range []bool{true, false} {
			if lanes && !laneCPU {
				continue
			}
			for _, workers := range []int{1, 3} {
				u0 := laneRuns.nonce.used.Load()
				got := draw(t, lanes, count, workers)
				if used := laneRuns.nonce.used.Load() - u0; lanes && used != uint64(2*count) {
					t.Fatalf("count %d: %d nonce lanes used, want %d", count, used, 2*count)
				}
				for i := range want.nonces {
					if !bytes.Equal(got.nonces[i], want.nonces[i]) || !bytes.Equal(got.cts[i], want.cts[i]) {
						t.Fatalf("count %d, lanes=%v, workers %d: element %d differs", count, lanes, workers, i)
					}
				}
			}
		}
	}
}
