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
					tab, err := pk.PowerTable(ct, alphaBits)
					if err != nil {
						t.Fatal(err)
					}
					for _, k := range ks {
						want, err := pk.ScalarMul(k, ct)
						if err != nil {
							t.Fatal(err)
						}
						got, err := tab.ScalarMul(k)
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

// TestPowerTableFailsClosed: what ScalarMul refuses, the table refuses
// the same way — an out-of-range ciphertext at construction, a
// non-unit at the inversion a negative scalar needs.
func TestPowerTableFailsClosed(t *testing.T) {
	sk := fastKey(t, 512)
	pk := sk.Public()
	for _, bad := range []*Ciphertext{nil, {}, {C: big.NewInt(0)}, {C: new(big.Int).Set(pk.NSquared())}} {
		if _, err := pk.PowerTable(bad, 100); !errors.Is(err, ErrInvalidCiphertext) {
			t.Fatalf("PowerTable(%v): err = %v, want ErrInvalidCiphertext", bad, err)
		}
	}
	nonUnit := &Ciphertext{C: new(big.Int).Mul(sk.p.d, big.NewInt(3))}
	tab, err := pk.PowerTable(nonUnit, 100)
	if err != nil {
		t.Fatal(err)
	}
	k := big.NewInt(-12345)
	if _, want := pk.ScalarMul(k, nonUnit); !errors.Is(want, ErrInvalidCiphertext) {
		t.Fatalf("ScalarMul on a non-unit: err = %v", want)
	}
	if _, err := tab.ScalarMul(k); !errors.Is(err, ErrInvalidCiphertext) {
		t.Fatalf("tabled ScalarMul on a non-unit: err = %v, want ErrInvalidCiphertext", err)
	}
}

// TestPowerTableConcurrent shares one table between goroutines (-race).
func TestPowerTableConcurrent(t *testing.T) {
	sk := fastKey(t, 512)
	pk := sk.Public()
	ct, err := pk.EncryptInt(rand.Reader, -77)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := pk.PowerTable(ct, 100)
	if err != nil {
		t.Fatal(err)
	}
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
				if got, err := tab.ScalarMul(k); err != nil || !got.Equal(want) {
					t.Errorf("goroutine %d: k=%s: got %v (err %v)", g, k, got, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
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
