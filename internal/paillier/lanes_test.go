package paillier

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"testing"
)

// requireLanes skips a test of the lane kernel where it is not built.
func requireLanes(t testing.TB) {
	t.Helper()
	if !laneCPU {
		t.Skip("lane kernel not available: the CPU lacks AVX512F/AVX512IFMA, the OS does not save ZMM state, or this is a purego build")
	}
}

// withLanes runs DecryptBatch with its lane path on or off until the
// test ends.
func withLanes(t testing.TB, on bool) {
	old := laneDecrypt
	laneDecrypt = on
	t.Cleanup(func() { laneDecrypt = old })
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
		var err error
		if foreign[i] {
			var r *big.Int
			if r, err = sk.randomUnit(rand.Reader); err == nil {
				cts[i], err = sk.EncryptWithNonce(ms[i], r)
			}
		} else {
			cts[i], err = sk.Encrypt(rand.Reader, ms[i])
		}
		if err != nil {
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
	u0, p0 := decryptLanes.used.Load(), decryptLanes.padding.Load()
	ms, err := fn()
	s1, f1 := Decrypts()
	return decryptCounts{
		short: s1 - s0, full: f1 - f0,
		used: decryptLanes.used.Load() - u0, padding: decryptLanes.padding.Load() - p0,
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
// moduli of 64 to 2 100 bits, exponents of 0 to 300 bits, and bases 0,
// 1, m-1, m, beyond m and arbitrary, in full and in short runs.
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
	f.Fuzz(func(t *testing.T, mRaw []byte, mBits uint16, eRaw []byte, eBits uint16, xRaw []byte, lanes uint8) {
		requireLanes(t)
		truncate := func(raw []byte, bits int) *big.Int {
			x := new(big.Int).SetBytes(raw)
			return x.And(x, new(big.Int).Sub(new(big.Int).Lsh(one, uint(bits)), one))
		}
		bits := 64 + int(mBits)%(2100-64+1)
		m := truncate(mRaw, bits)
		m.SetBit(m, bits-1, 1).SetBit(m, 0, 1)
		e := truncate(eRaw, int(eBits)%301)
		x := new(big.Int).SetBytes(xRaw)
		xs := []*big.Int{
			new(big.Int), big.NewInt(1), new(big.Int).Sub(m, one), new(big.Int).Set(m),
			new(big.Int).Add(m, x), x, new(big.Int).Mod(x, m), new(big.Int).Mul(x, x),
		}
		lm := newLaneModulus(m)
		if lm == nil {
			t.Fatalf("no lane modulus for an odd %d-bit m", bits)
		}
		for _, run := range [][]*big.Int{xs, xs[int(lanes)%len(xs):]} {
			got := lm.exp(run, e)
			for l, xl := range run {
				if want := new(big.Int).Exp(xl, e, m); got[l].Cmp(want) != 0 {
					t.Fatalf("lane %d of %d: %x^%x mod %x = %x, want %x", l, len(run), xl, e, m, got[l], want)
				}
			}
		}
	})
}
