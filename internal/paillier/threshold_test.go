package paillier

import (
	"crypto/rand"
	"math/big"
	"testing"
	"testing/quick"
)

func splitTestKey(t *testing.T, count int) []*KeyShare {
	t.Helper()
	shares, err := testKey().SplitKey(rand.Reader, count)
	if err != nil {
		t.Fatalf("SplitKey: %v", err)
	}
	return shares
}

func thresholdDecrypt(t *testing.T, shares []*KeyShare, ct *Ciphertext) *big.Int {
	t.Helper()
	partials := make([]*Partial, len(shares))
	for i, s := range shares {
		p, err := s.PartialDecrypt(ct)
		if err != nil {
			t.Fatalf("PartialDecrypt(%d): %v", i, err)
		}
		partials[i] = p
	}
	m, err := CombinePartials(shares[0].pk, partials)
	if err != nil {
		t.Fatalf("CombinePartials: %v", err)
	}
	return m
}

func TestSplitKeyValidation(t *testing.T) {
	if _, err := testKey().SplitKey(rand.Reader, 1); err == nil {
		t.Fatal("single share accepted")
	}
	if _, err := testKey().SplitKey(rand.Reader, 0); err == nil {
		t.Fatal("zero shares accepted")
	}
}

func TestThresholdDecryptionMatchesPlain(t *testing.T) {
	sk := testKey()
	shares := splitTestKey(t, 2)
	prop := func(m int32) bool {
		ct := mustEncrypt(t, &sk.PublicKey, int64(m))
		return thresholdDecrypt(t, shares, ct).Int64() == int64(m)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestThresholdDecryptionSigned(t *testing.T) {
	sk := testKey()
	shares := splitTestKey(t, 2)
	for _, m := range []int64{0, -1, 1, -(1 << 59), 1 << 59} {
		ct := mustEncrypt(t, &sk.PublicKey, m)
		if got := thresholdDecrypt(t, shares, ct); got.Int64() != m {
			t.Errorf("threshold decrypt %d = %s", m, got)
		}
	}
}

func TestThresholdThreeShares(t *testing.T) {
	sk := testKey()
	shares := splitTestKey(t, 3)
	ct := mustEncrypt(t, &sk.PublicKey, 777)
	if got := thresholdDecrypt(t, shares, ct); got.Int64() != 777 {
		t.Fatalf("3-share decrypt = %s, want 777", got)
	}
}

func TestThresholdAfterHomomorphicOps(t *testing.T) {
	// The combined path must decode results of the homomorphic
	// pipeline, not just fresh encryptions.
	sk := testKey()
	pk := &sk.PublicKey
	shares := splitTestKey(t, 2)
	a := mustEncrypt(t, pk, 1000)
	b := mustEncrypt(t, pk, 1)
	scaled, err := pk.ScalarMulInt(-3, a)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := pk.Add(scaled, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := thresholdDecrypt(t, shares, sum); got.Int64() != -2999 {
		t.Fatalf("threshold decrypt of pipeline result = %s, want -2999", got)
	}
}

func TestSingleShareCannotDecrypt(t *testing.T) {
	sk := testKey()
	shares := splitTestKey(t, 2)
	ct := mustEncrypt(t, &sk.PublicKey, 42)
	p, err := shares[0].PartialDecrypt(ct)
	if err != nil {
		t.Fatal(err)
	}
	// One partial must not be combinable...
	if _, err := CombinePartials(&sk.PublicKey, []*Partial{p}); err == nil {
		t.Fatal("single partial combined")
	}
	// ...and the raw partial value must not decode to the message
	// (it is c^(d_1), not (1+n)^m).
	m := new(big.Int).Sub(p.V, big.NewInt(1))
	rem := new(big.Int)
	m.DivMod(m, sk.N, rem)
	if rem.Sign() == 0 && sk.PublicKey.decode(m).Int64() == 42 {
		t.Fatal("single partial decoded the plaintext; share split is broken")
	}
}

func TestCombinePartialsRejectsDuplicates(t *testing.T) {
	sk := testKey()
	shares := splitTestKey(t, 2)
	ct := mustEncrypt(t, &sk.PublicKey, 9)
	p, err := shares[0].PartialDecrypt(ct)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CombinePartials(&sk.PublicKey, []*Partial{p, p}); err == nil {
		t.Fatal("duplicate partials accepted")
	}
	if _, err := CombinePartials(&sk.PublicKey, []*Partial{p, nil}); err == nil {
		t.Fatal("nil partial accepted")
	}
}

func TestPartialDecryptValidatesCiphertext(t *testing.T) {
	shares := splitTestKey(t, 2)
	if _, err := shares[0].PartialDecrypt(nil); err == nil {
		t.Fatal("nil ciphertext accepted")
	}
	if _, err := shares[0].PartialDecrypt(&Ciphertext{C: big.NewInt(0)}); err == nil {
		t.Fatal("zero ciphertext accepted")
	}
}

func TestSharesSumCoversExponent(t *testing.T) {
	// Mismatched share sets (one share from each of two different
	// splits) must fail to produce a valid decryption.
	sk := testKey()
	splitA := splitTestKey(t, 2)
	splitB := splitTestKey(t, 2)
	ct := mustEncrypt(t, &sk.PublicKey, 5)
	pa, err := splitA[0].PartialDecrypt(ct)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := splitB[1].PartialDecrypt(ct)
	if err != nil {
		t.Fatal(err)
	}
	pb.Index = 2 // avoid the duplicate-index check; contents still wrong
	if m, err := CombinePartials(&sk.PublicKey, []*Partial{pa, pb}); err == nil && m.Int64() == 5 {
		t.Fatal("mixed shares from different splits decrypted correctly; exponent derivation suspicious")
	}
}
