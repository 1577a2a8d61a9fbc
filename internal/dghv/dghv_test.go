package dghv

import (
	"crypto/rand"
	mrand "math/rand"
	"sync"
	"testing"
)

var testKeyOnce = sync.OnceValue(func() *Key {
	k, err := KeyGen(rand.Reader, ToyParams())
	if err != nil {
		panic(err)
	}
	return k
})

func TestParamsValidate(t *testing.T) {
	if err := ToyParams().Validate(); err != nil {
		t.Fatalf("toy params invalid: %v", err)
	}
	bad := []Params{
		{Rho: 1, Eta: 768, Gamma: 4096},
		{Rho: 16, Eta: 32, Gamma: 4096},
		{Rho: 16, Eta: 768, Gamma: 512},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
}

func TestEncryptDecryptBit(t *testing.T) {
	k := testKeyOnce()
	for _, bit := range []int{0, 1} {
		for i := 0; i < 8; i++ {
			ct, err := k.Encrypt(rand.Reader, bit)
			if err != nil {
				t.Fatalf("Encrypt(%d): %v", bit, err)
			}
			got, err := k.Decrypt(ct)
			if err != nil {
				t.Fatalf("Decrypt: %v", err)
			}
			if got != bit {
				t.Fatalf("round trip %d -> %d", bit, got)
			}
		}
	}
	if _, err := k.Encrypt(rand.Reader, 2); err == nil {
		t.Error("non-bit message accepted")
	}
}

func TestGatesTruthTables(t *testing.T) {
	k := testKeyOnce()
	enc := func(b int) *Ciphertext {
		t.Helper()
		ct, err := k.Encrypt(rand.Reader, b)
		if err != nil {
			t.Fatal(err)
		}
		return ct
	}
	dec := func(ct *Ciphertext) int {
		t.Helper()
		v, err := k.Decrypt(ct)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	for a := 0; a <= 1; a++ {
		for b := 0; b <= 1; b++ {
			ca, cb := enc(a), enc(b)
			if got := dec(Xor(ca, cb)); got != a^b {
				t.Errorf("XOR(%d, %d) = %d", a, b, got)
			}
			if got := dec(And(ca, cb)); got != a&b {
				t.Errorf("AND(%d, %d) = %d", a, b, got)
			}
			if got := dec(Or(ca, cb)); got != a|b {
				t.Errorf("OR(%d, %d) = %d", a, b, got)
			}
		}
		if got := dec(Not(enc(a))); got != 1-a {
			t.Errorf("NOT(%d) = %d", a, got)
		}
	}
}

func TestNoiseGrowsWithAnd(t *testing.T) {
	k := testKeyOnce()
	a, err := k.Encrypt(rand.Reader, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := k.Encrypt(rand.Reader, 1)
	if err != nil {
		t.Fatal(err)
	}
	before := k.NoiseBits(a)
	after := k.NoiseBits(And(a, b))
	if after <= before {
		t.Errorf("noise did not grow under AND: %d -> %d", before, after)
	}
}

func TestComparatorMatchesPlaintext(t *testing.T) {
	k := testKeyOnce()
	rng := mrand.New(mrand.NewSource(11))
	const width = 8
	for trial := 0; trial < 12; trial++ {
		x := uint64(rng.Intn(256))
		y := uint64(rng.Intn(256))
		ex, err := k.EncryptBits(rand.Reader, x, width)
		if err != nil {
			t.Fatal(err)
		}
		ey, err := k.EncryptBits(rand.Reader, y, width)
		if err != nil {
			t.Fatal(err)
		}
		var gates GateCount
		res, err := GreaterThan(ex, ey, &gates)
		if err != nil {
			t.Fatalf("GreaterThan: %v", err)
		}
		got, err := k.Decrypt(res)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		if x > y {
			want = 1
		}
		if got != want {
			t.Fatalf("GT(%d, %d) = %d, want %d (noise %d bits of eta %d)",
				x, y, got, want, k.NoiseBits(res), k.params.Eta)
		}
		if gates.And == 0 || gates.Xor == 0 {
			t.Fatal("gate counter not incremented")
		}
	}
}

func TestComparatorEdgeCases(t *testing.T) {
	k := testKeyOnce()
	cases := []struct{ x, y uint64 }{
		{0, 0}, {255, 255}, {0, 255}, {255, 0}, {128, 127}, {127, 128},
	}
	for _, tc := range cases {
		ex, err := k.EncryptBits(rand.Reader, tc.x, 8)
		if err != nil {
			t.Fatal(err)
		}
		ey, err := k.EncryptBits(rand.Reader, tc.y, 8)
		if err != nil {
			t.Fatal(err)
		}
		res, err := GreaterThan(ex, ey, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := k.Decrypt(res)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		if tc.x > tc.y {
			want = 1
		}
		if got != want {
			t.Errorf("GT(%d, %d) = %d, want %d", tc.x, tc.y, got, want)
		}
	}
}

func TestGreaterThanValidation(t *testing.T) {
	k := testKeyOnce()
	bits, err := k.EncryptBits(rand.Reader, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := GreaterThan(bits, bits[:2], nil); err == nil {
		t.Error("width mismatch accepted")
	}
	if _, err := GreaterThan(nil, nil, nil); err == nil {
		t.Error("empty operands accepted")
	}
	if _, err := k.EncryptBits(rand.Reader, 5, 0); err == nil {
		t.Error("zero width accepted")
	}
}

func TestCiphertextBytes(t *testing.T) {
	k := testKeyOnce()
	if got, want := k.CiphertextBytes(), 4096/8; got != want {
		t.Errorf("CiphertextBytes = %d, want %d", got, want)
	}
}
