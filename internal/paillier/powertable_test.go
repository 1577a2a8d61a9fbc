package paillier

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"strings"
	"sync"
	"testing"
)

// powerTable tables ct alone.
func powerTable(t testing.TB, pk *PublicKey, ct *Ciphertext, bits int) *PowerTable {
	t.Helper()
	tabs, err := pk.PowerTables([]*Ciphertext{ct}, bits)
	if err != nil {
		t.Fatal(err)
	}
	return tabs[0]
}

// tabledMul raises one table to k.
func tabledMul(pk *PublicKey, tab *PowerTable, k *big.Int) (*Ciphertext, error) {
	out, err := pk.ScalarMulTables([]*big.Int{k}, []*PowerTable{tab})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// TestPowerTableMatchesScalarMul holds the tabled scalar multiplication
// against the plain one bit for bit, at a test-sized and a production
// modulus and both blinding widths in use, over random ciphertexts and
// the scalars a blinding can produce (alpha of exactly the tabled width,
// either sign) plus the edges: 0, +-1, the widest covered scalar, and
// one bit too wide, which leaves the comb for the engine's fallback.
func TestPowerTableMatchesScalarMul(t *testing.T) {
	for _, bits := range []int{768, 2048} {
		sk := fastKey(t, bits)
		pk := sk.Public()
		for _, alphaBits := range []int{100, 128} {
			t.Run(fmt.Sprintf("n=%d/alpha=%d", bits, alphaBits), func(t *testing.T) {
				top := new(big.Int).Lsh(one, uint(alphaBits-1))
				ks := []*big.Int{
					big.NewInt(0), big.NewInt(1), big.NewInt(-1),
					new(big.Int).Sub(new(big.Int).Lsh(one, uint(alphaBits)), one),
					new(big.Int).Lsh(one, uint(alphaBits)),
					new(big.Int).Neg(new(big.Int).Lsh(one, uint(alphaBits))),
				}
				for i := 0; i < 4; i++ {
					alpha, err := RandomInRange(rand.Reader, top, new(big.Int).Lsh(top, 1))
					if err != nil {
						t.Fatal(err)
					}
					ks = append(ks, alpha, new(big.Int).Neg(alpha))
				}
				for i := 0; i < 3; i++ {
					m, err := RandomSigned(rand.Reader, 60, true)
					if err != nil {
						t.Fatal(err)
					}
					ct, err := pk.Encrypt(rand.Reader, m)
					if err != nil {
						t.Fatal(err)
					}
					tab := powerTable(t, pk, ct, alphaBits)
					for _, k := range ks {
						want, err := pk.ScalarMul(k, ct)
						if err != nil {
							t.Fatal(err)
						}
						got, err := tabledMul(pk, tab, k)
						if err != nil {
							t.Fatalf("k=%s: %v", k, err)
						}
						if !got.Equal(want) {
							t.Fatalf("k=%s: table gives %s, ScalarMul %s", k, got.C, want.C)
						}
					}
				}
			})
		}
	}
}

// TestPowerTablesMatchScalarMul holds ScalarMulTables, on lane tables
// and on fbexp's (the kernel switched off at the build), to ScalarMul
// element by element, for batches of 1 to 17 tables built together —
// full runs of eight, padded ones — at 576, 768 and 2048 bits, with
// scalars 0, 1, negative ones and ones wider than the tables (which
// leave the comb for the general exponentiation) among them. Both kinds
// give ScalarMul's bytes, so they give each other's; only lane tables
// count lanes, op="table", one kernel run per eight elements on the comb.
func TestPowerTablesMatchScalarMul(t *testing.T) {
	const alphaBits = 100
	for _, keyBits := range []int{576, 768, 2048} {
		sk := laneKey(t, keyBits)
		pk := sk.Public()
		ks, cts := laneCells(t, sk, 17)
		wide := new(big.Int).Lsh(one, alphaBits)
		ks[1], ks[9] = big.NewInt(0), big.NewInt(1)
		ks[5], ks[13] = new(big.Int).Add(wide, ks[5]), new(big.Int).Neg(wide)
		want := make([]*Ciphertext, len(cts))
		for i := range cts {
			var err error
			if want[i], err = pk.ScalarMul(ks[i], cts[i]); err != nil {
				t.Fatal(err)
			}
		}
		for _, lanes := range []bool{true, false} {
			t.Run(fmt.Sprintf("bits=%d/lanes=%v", keyBits, lanes), func(t *testing.T) {
				if lanes {
					requireLanes(t)
				}
				withLanes(t, lanes)
				for size := 1; size <= len(cts); size++ {
					tabs, err := pk.PowerTables(cts[:size], alphaBits)
					if err != nil {
						t.Fatalf("size %d: %v", size, err)
					}
					if onLanes := tabs[0].lane != nil; onLanes != lanes {
						t.Fatalf("size %d: lane table %v with the kernel on %v", size, onLanes, lanes)
					}
					u0, p0 := laneRuns.table.used.Load(), laneRuns.table.padding.Load()
					got, err := pk.ScalarMulTables(ks[:size], tabs)
					if err != nil {
						t.Fatalf("size %d: %v", size, err)
					}
					var combed uint64 // elements whose scalar fits the tables
					for i := range got {
						if !got[i].Equal(want[i]) {
							t.Fatalf("size %d, element %d (k = %s): tables differ from ScalarMul", size, i, ks[i])
						}
						if ks[i].BitLen() <= alphaBits {
							combed++
						}
					}
					var wantUsed, wantPadding uint64
					if lanes {
						wantUsed = combed
						wantPadding = (combed+laneWidth-1)/laneWidth*laneWidth - combed
					}
					used, padding := laneRuns.table.used.Load()-u0, laneRuns.table.padding.Load()-p0
					if used != wantUsed || padding != wantPadding {
						t.Fatalf("size %d: table lanes used %d, padding %d; want %d, %d", size, used, padding, wantUsed, wantPadding)
					}
				}
			})
		}
	}
}

// TestPowerTableFailsClosed: what ScalarMul refuses, the tables refuse
// the same way and name the element, on lane tables and fbexp's — a
// ciphertext outside Z_{n^2} at PowerTables, a non-unit at the inversion
// a negative scalar needs, inside a full run of eight and alone in a
// short one — while a non-unit under a positive scalar gives ScalarMul's
// power. A width outside [1, 2^16] is refused before any table is built.
func TestPowerTableFailsClosed(t *testing.T) {
	sk := laneKey(t, 512)
	pk := sk.Public()
	ks, cts := laneCells(t, sk, 9)
	for i := range ks {
		ks[i].Abs(ks[i])
	}
	nonUnit := &Ciphertext{C: new(big.Int).Mul(sk.p.d, big.NewInt(3))}
	for _, lanes := range []bool{true, false} {
		if lanes && !laneCPU {
			continue
		}
		withLanes(t, lanes)
		for _, width := range []int{0, -3, maxTableBits + 1} {
			if _, err := pk.PowerTables(cts, width); err == nil {
				t.Fatalf("lanes=%v: width %d accepted", lanes, width)
			}
		}
		for _, at := range []int{0, 5, 8} {
			for _, bad := range []*Ciphertext{nil, {}, {C: big.NewInt(0)}, {C: new(big.Int).Set(pk.NSquared())}} {
				batch := append([]*Ciphertext(nil), cts...)
				batch[at] = bad
				_, err := pk.PowerTables(batch, 100)
				var be *BatchError
				if !errors.As(err, &be) || be.Index != at || !errors.Is(err, ErrInvalidCiphertext) {
					t.Fatalf("lanes=%v: PowerTables with %v at %d: %v", lanes, bad, at, err)
				}
			}
			batch := append([]*Ciphertext(nil), cts...)
			batch[at] = nonUnit
			tabs, err := pk.PowerTables(batch, 100)
			if err != nil {
				t.Fatalf("lanes=%v: non-unit at %d: %v", lanes, at, err)
			}
			got, err := pk.ScalarMulTables(ks, tabs)
			if err != nil {
				t.Fatalf("lanes=%v: non-unit at %d under a positive scalar: %v", lanes, at, err)
			}
			if want, _ := pk.ScalarMul(ks[at], nonUnit); !got[at].Equal(want) {
				t.Fatalf("lanes=%v: non-unit at %d: tables differ from ScalarMul", lanes, at)
			}
			negK := append([]*big.Int(nil), ks...)
			negK[at] = new(big.Int).Neg(ks[at])
			if _, want := pk.ScalarMul(negK[at], nonUnit); !errors.Is(want, ErrInvalidCiphertext) {
				t.Fatalf("ScalarMul on a non-unit: err = %v", want)
			}
			_, err = pk.ScalarMulTables(negK, tabs)
			var be *BatchError
			if !errors.As(err, &be) || be.Index != at || !errors.Is(err, ErrInvalidCiphertext) {
				t.Fatalf("lanes=%v: non-unit at %d under a negative scalar: %v", lanes, at, err)
			}
		}
	}
}

// TestPowerTableConcurrent shares tables between goroutines (-race),
// lane tables and fbexp's: the lane runs draw their working memory from
// one pool.
func TestPowerTableConcurrent(t *testing.T) {
	sk := laneKey(t, 512)
	pk := sk.Public()
	ct, err := pk.EncryptInt(rand.Reader, -77)
	if err != nil {
		t.Fatal(err)
	}
	for _, lanes := range []bool{true, false} {
		if lanes && !laneCPU {
			continue
		}
		withLanes(t, lanes)
		tab := powerTable(t, pk, ct, 100)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					k := big.NewInt(int64((g+1)*1_000_003 + i))
					if g%2 == 1 {
						k.Neg(k)
					}
					want, err := pk.ScalarMul(k, ct)
					if err != nil {
						t.Error(err)
						return
					}
					if got, err := tabledMul(pk, tab, k); err != nil || !got.Equal(want) {
						t.Errorf("lanes=%v, goroutine %d: k=%s: got %v (err %v)", lanes, g, k, got, err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// TestNegBatchMatchesNeg: simultaneous inversion returns, element for
// element, the bits Neg returns — for batches of every small size, the
// empty one included.
func TestNegBatchMatchesNeg(t *testing.T) {
	for _, bits := range []int{768, 2048} {
		sk := fastKey(t, bits)
		pk := sk.Public()
		cts := make([]*Ciphertext, 9)
		for i := range cts {
			var err error
			if cts[i], err = pk.EncryptInt(rand.Reader, int64(i*i-20)); err != nil {
				t.Fatal(err)
			}
		}
		for size := 0; size <= len(cts); size++ {
			got, err := pk.NegBatch(cts[:size])
			if err != nil {
				t.Fatalf("n=%d size=%d: %v", bits, size, err)
			}
			if len(got) != size {
				t.Fatalf("n=%d size=%d: %d results", bits, size, len(got))
			}
			for i := range got {
				want, err := pk.Neg(cts[i])
				if err != nil {
					t.Fatal(err)
				}
				if !got[i].Equal(want) {
					t.Fatalf("n=%d size=%d element %d: batch gives %s, Neg %s", bits, size, i, got[i].C, want.C)
				}
				if m := mustDecrypt(t, sk, got[i]); m != -int64(i*i-20) {
					t.Fatalf("element %d decrypts to %d", i, m)
				}
			}
		}
	}
}

// TestNegBatchNonUnit: an element Neg refuses — a multiple of a prime
// factor of n, or a value outside Z_{n^2} — fails for that element only.
// Every other slot is still the bits Neg returns, and the error names
// the first refused index.
func TestNegBatchNonUnit(t *testing.T) {
	sk := fastKey(t, 768)
	pk := sk.Public()
	good := make([]*Ciphertext, 5)
	for i := range good {
		var err error
		if good[i], err = pk.EncryptInt(rand.Reader, int64(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	for name, bad := range map[string]*Ciphertext{
		"multiple of p": {C: new(big.Int).Mul(sk.p.d, big.NewInt(7))},
		"multiple of q": {C: new(big.Int).Mul(sk.q.d, sk.q.d)},
		"zero":          {C: new(big.Int)},
		"out of range":  {C: new(big.Int).Add(pk.NSquared(), one)},
		"nil":           nil,
	} {
		for _, at := range []int{0, 2, len(good)} {
			batch := append(append(append([]*Ciphertext{}, good[:at]...), bad), good[at:]...)
			out, err := pk.NegBatch(batch)
			if !errors.Is(err, ErrInvalidCiphertext) {
				t.Fatalf("%s at %d: err = %v, want ErrInvalidCiphertext", name, at, err)
			}
			if want := fmt.Sprintf("element %d:", at); !strings.Contains(err.Error(), want) {
				t.Fatalf("%s at %d: error %q does not name the element", name, at, err)
			}
			for i, ct := range batch {
				if i == at {
					if out[i] != nil {
						t.Fatalf("%s at %d: refused element came back as %v", name, at, out[i])
					}
					continue
				}
				want, err := pk.Neg(ct)
				if err != nil {
					t.Fatal(err)
				}
				if out[i] == nil || !out[i].Equal(want) {
					t.Fatalf("%s at %d: element %d is %v, want Neg's %s", name, at, i, out[i], want.C)
				}
			}
		}
	}
}

// TestExponentiationsMatchBigInt holds every power modulo n^2 the
// package computes against big.Int.Exp, which computed them before the
// half-width kernel did: ScalarMul over zero, unit, blinding-width,
// nonce-width and n-sized scalars of either sign; the legacy nonce r^n;
// a tabled H^s (through a deterministic source, so s is known); and a
// threshold share's c^d. A negative scalar on a non-unit still fails
// closed.
func TestExponentiationsMatchBigInt(t *testing.T) {
	for _, bits := range []int{768, 2048} {
		sk := fastKey(t, bits)
		pk := sk.Public()
		nn := pk.NSquared()
		ct, err := pk.Encrypt(rand.Reader, big.NewInt(-123456789))
		if err != nil {
			t.Fatal(err)
		}
		ks := []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(-1), big.NewInt(2), pk.N, new(big.Int).Neg(pk.N)}
		for _, w := range []int{60, 100, 128, 256, bits - 8} {
			k, err := RandomInRange(rand.Reader, new(big.Int).Lsh(one, uint(w-1)), new(big.Int).Lsh(one, uint(w)))
			if err != nil {
				t.Fatal(err)
			}
			ks = append(ks, k, new(big.Int).Neg(k))
		}
		for _, k := range ks {
			got, err := pk.ScalarMul(k, ct)
			if err != nil {
				t.Fatalf("n=%d k=%s: %v", bits, k, err)
			}
			if want := new(big.Int).Exp(ct.C, k, nn); got.C.Cmp(want) != 0 {
				t.Fatalf("n=%d: ScalarMul(%s) differs from big.Int.Exp", bits, k)
			}
		}
		if _, err := pk.ScalarMul(big.NewInt(-3), &Ciphertext{C: new(big.Int).Set(pk.N)}); !errors.Is(err, ErrInvalidCiphertext) {
			t.Fatalf("n=%d: negative scalar on a non-unit: %v, want ErrInvalidCiphertext", bits, err)
		}

		// A fresh key with H draws s from the source (its table build
		// reads none) and returns H^s from the table.
		fresh := PublicKey{N: pk.N, H: pk.H}
		seed := strings.Repeat("pisa-nonce-seed:", 8)
		nonce, err := newNonce(&fresh, strings.NewReader(seed))
		if err != nil {
			t.Fatal(err)
		}
		s, err := rand.Int(strings.NewReader(seed), new(big.Int).Lsh(one, DefaultShortExpBits))
		if err != nil {
			t.Fatal(err)
		}
		if want := new(big.Int).Exp(pk.H, s, nn); nonce.rn.Cmp(want) != 0 {
			t.Fatalf("n=%d: tabled H^s differs from big.Int.Exp", bits)
		}

		shares, err := sk.SplitKey(rand.Reader, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, share := range shares {
			part, err := share.PartialDecrypt(ct)
			if err != nil {
				t.Fatal(err)
			}
			if want := new(big.Int).Exp(ct.C, share.d, nn); part.V.Cmp(want) != 0 {
				t.Fatalf("n=%d: share %d's c^d differs from big.Int.Exp", bits, share.Index)
			}
		}
	}
}

// TestCloneCompact: the copies equal their originals, are their own
// objects on memory of their own, and a write through one does not reach
// its neighbours. (What they retain is measured where it matters, on a
// cache entry: pisa's TestCacheEntryMemory.)
func TestCloneCompact(t *testing.T) {
	pk := fastKey(t, 768).Public()
	src := make([]*Ciphertext, 8)
	for i := range src {
		a, err := pk.Encrypt(rand.Reader, big.NewInt(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		// A product, as the aggregate leaves them: capacity far above the value.
		if src[i], err = pk.Add(a, a); err != nil {
			t.Fatal(err)
		}
	}
	got := CloneCompact(src)
	if len(got) != len(src) {
		t.Fatalf("%d copies of %d ciphertexts", len(got), len(src))
	}
	for i := range got {
		if got[i] == src[i] || got[i].C == src[i].C || !got[i].Equal(src[i]) {
			t.Fatalf("copy %d is not an equal, separate ciphertext", i)
		}
		if c, l := cap(got[i].C.Bits()), len(got[i].C.Bits()); c != l {
			t.Fatalf("copy %d holds %d words for a value of %d", i, c, l)
		}
	}
	got[3].C.Lsh(got[3].C, 70)
	if !got[2].Equal(src[2]) || !got[4].Equal(src[4]) {
		t.Fatal("a write through one copy reached its neighbour")
	}
	if out := CloneCompact(nil); len(out) != 0 {
		t.Fatalf("CloneCompact(nil) returned %d ciphertexts", len(out))
	}
}
