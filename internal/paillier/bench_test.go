package paillier

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"testing"
)

// benchKeys caches keys per modulus size across benchmarks.
var benchKeys = map[int]*PrivateKey{}

func benchKey(b *testing.B, bits int) *PrivateKey {
	b.Helper()
	if sk, ok := benchKeys[bits]; ok {
		return sk
	}
	sk, err := GenerateKey(rand.Reader, bits)
	if err != nil {
		b.Fatal(err)
	}
	benchKeys[bits] = sk
	return sk
}

// BenchmarkEncrypt sweeps modulus sizes: one tabled H^s and one
// multiplication mod n^2 per encryption. The key's first encryption,
// which builds the table, runs before the timer.
func BenchmarkEncrypt(b *testing.B) {
	for _, bits := range []int{512, 1024, 2048} {
		b.Run(fmt.Sprintf("bits=%d", bits), func(b *testing.B) {
			sk := benchKey(b, bits)
			m := big.NewInt(1<<59 - 1)
			if _, err := sk.PublicKey.Encrypt(rand.Reader, m); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sk.PublicKey.Encrypt(rand.Reader, m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecrypt measures CRT decryption at 2048 bits on its two
// exponents: short for a ciphertext whose nonce is a power of the
// key's H (everything Encrypt and the homomorphic operations produce),
// continued for a foreign nonce, which pays the full p-1 as every
// decryption did before H was published.
func BenchmarkDecrypt(b *testing.B) {
	sk := benchKey(b, 2048)
	m := big.NewInt(123456789)
	short, err := sk.PublicKey.Encrypt(rand.Reader, m)
	if err != nil {
		b.Fatal(err)
	}
	r, err := sk.randomUnit(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	continued, err := sk.EncryptWithNonce(m, r)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		ct   *Ciphertext
	}{{"short", short}, {"continued", continued}} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sk.Decrypt(tc.ct); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGenerateKey measures key generation at 2048 bits: two
// primes of the form 2*a*k+1 and the nonce base H.
func BenchmarkGenerateKey(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := GenerateKey(rand.Reader, 2048); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkThresholdDecrypt measures 2-of-2 threshold decryption (two
// full-width exponentiations plus a combine) against the CRT path.
func BenchmarkThresholdDecrypt(b *testing.B) {
	sk := benchKey(b, 1024)
	shares, err := sk.SplitKey(rand.Reader, 2)
	if err != nil {
		b.Fatal(err)
	}
	ct, err := sk.PublicKey.EncryptInt(rand.Reader, 424242)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pa, err := shares[0].PartialDecrypt(ct)
		if err != nil {
			b.Fatal(err)
		}
		pb, err := shares[1].PartialDecrypt(ct)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := CombinePartials(&sk.PublicKey, []*Partial{pa, pb}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRerandomize compares fresh re-randomisation with the
// pooled-nonce path (the §VI-A reuse trick).
func BenchmarkRerandomize(b *testing.B) {
	sk := benchKey(b, 2048)
	ct, err := sk.PublicKey.EncryptInt(rand.Reader, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("fresh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sk.PublicKey.Rerandomize(rand.Reader, ct); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pooled", func(b *testing.B) {
		// Cycle a fixed nonce array: generating b.N nonces in setup
		// would dominate the run, and the timed operation (one
		// modular multiplication) is identical either way.
		nonces := make([]*Nonce, 64)
		for i := range nonces {
			n, err := sk.PublicKey.NewNonce(rand.Reader)
			if err != nil {
				b.Fatal(err)
			}
			nonces[i] = n
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sk.PublicKey.RerandomizeWith(ct, nonces[i%len(nonces)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkHotPath measures the operations the nonce table accelerates,
// under one set of benchmark names so benchstat can compare them across
// commits. The set-up encryption builds the table.
func BenchmarkHotPath(b *testing.B) {
	sk := benchKey(b, 2048)
	pk := &sk.PublicKey
	m := big.NewInt(1<<59 - 1)
	ct, err := pk.Encrypt(rand.Reader, m)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encrypt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pk.Encrypt(rand.Reader, m); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("newNonce", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pk.NewNonce(rand.Reader); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rerandomize", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pk.Rerandomize(rand.Reader, ct); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("nonceBatch32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pk.NewNonceBatch(rand.Reader, 32, 4); err != nil {
				b.Fatal(err)
			}
		}
	})
	// requestCells12 is the request-preparation hot path: encrypt 12
	// budget cells, folded into a single slot-packed ciphertext.
	b.Run("requestCells12", func(b *testing.B) {
		const cells = 12
		vals := make([]int64, cells)
		for i := range vals {
			vals[i] = int64(1000 + i)
		}
		codec, err := NewSlotCodec(cells, 162, 160)
		if err != nil {
			b.Fatal(err)
		}
		if err := codec.CheckKey(pk); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m, err := codec.PackInt64(vals)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := pk.Encrypt(rand.Reader, m); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkScalarMulWidth shows scalar-multiplication cost scaling
// with the scalar width — the reason PISA keeps its blinding factors
// around 100 bits.
func BenchmarkScalarMulWidth(b *testing.B) {
	sk := benchKey(b, 2048)
	ct, err := sk.PublicKey.EncryptInt(rand.Reader, 99)
	if err != nil {
		b.Fatal(err)
	}
	for _, width := range []int{60, 100, 512, 2040} {
		b.Run(fmt.Sprintf("scalarBits=%d", width), func(b *testing.B) {
			k, err := RandomSigned(rand.Reader, width, false)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sk.PublicKey.ScalarMul(k, ct); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScalarMul is the alpha-blinding kernel at Table I's scale
// (2048-bit n, 100-bit scalar): the general exponentiation every cache
// miss pays per ciphertext, the tabled one a cache hit pays, and the
// table build the first hit of an entry pays once.
func BenchmarkScalarMul(b *testing.B) {
	const alphaBits = 100
	sk := benchKey(b, 2048)
	pk := sk.Public()
	ct, err := pk.EncryptInt(rand.Reader, 99)
	if err != nil {
		b.Fatal(err)
	}
	top := new(big.Int).Lsh(one, alphaBits-1)
	k, err := RandomInRange(rand.Reader, top, new(big.Int).Lsh(top, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pk.ScalarMul(k, ct); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("table", func(b *testing.B) {
		tab, err := pk.PowerTable(ct, alphaBits)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(tab.SizeBytes()), "table-B")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := tab.ScalarMul(k); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("table-build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pk.PowerTable(ct, alphaBits); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkInvert is homomorphic negation of 32 ciphertexts (one
// full-grid request at the benchmark's scale), one modular inversion
// each against one for the batch; ns/op is per batch.
func BenchmarkInvert(b *testing.B) {
	sk := benchKey(b, 2048)
	pk := sk.Public()
	cts := make([]*Ciphertext, 32)
	for i := range cts {
		var err error
		if cts[i], err = pk.EncryptInt(rand.Reader, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("each", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, ct := range cts {
				if _, err := pk.Neg(ct); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batch32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pk.NegBatch(cts); err != nil {
				b.Fatal(err)
			}
		}
	})
}
