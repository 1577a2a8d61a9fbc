package dsig

import (
	"crypto"
	"crypto/rand"
	"crypto/rsa"
	"errors"
	"math/big"
	"sync"
	"testing"
)

var testSigner = sync.OnceValue(func() *Signer {
	s, err := NewSigner(rand.Reader, 1024)
	if err != nil {
		panic(err)
	}
	return s
})

func sampleLicense() *License {
	return &License{
		SUID:          "su-42",
		Issuer:        "sdc-main",
		Serial:        7,
		IssuedUnix:    1_700_000_000,
		ExpiresUnix:   1_700_086_400,
		RequestDigest: HashRequest([]byte("encrypted-request-bytes")),
	}
}

func TestNewSignerRejectsTinyKeys(t *testing.T) {
	if _, err := NewSigner(rand.Reader, 256); err == nil {
		t.Fatal("256-bit signer accepted")
	}
}

// checkKey holds a signer's key to what crypto/rsa.GenerateKey
// guarantees: a valid key of exactly bits bits with e = 65537, each
// prime with its top two bits set and e prime to p-1, |p-q| above
// 2^(bits/2-100), and a signature that the stdlib verifies and that
// fails once a bit flips.
func checkKey(t *testing.T, s *Signer, bits int) {
	t.Helper()
	key := s.key
	if err := key.Validate(); err != nil {
		t.Fatalf("%d bits: Validate: %v", bits, err)
	}
	if key.N.BitLen() != bits || key.E != 65537 {
		t.Fatalf("%d bits: modulus of %d bits, e = %d", bits, key.N.BitLen(), key.E)
	}
	if len(key.Primes) != 2 {
		t.Fatalf("%d bits: %d primes", bits, len(key.Primes))
	}
	one, e := big.NewInt(1), big.NewInt(65537)
	for i, p := range key.Primes {
		if w := p.BitLen(); p.Bit(w-1) != 1 || p.Bit(w-2) != 1 {
			t.Fatalf("%d bits: prime %d lacks its top two bits", bits, i)
		}
		if !p.ProbablyPrime(20) {
			t.Fatalf("%d bits: prime %d is composite", bits, i)
		}
		if new(big.Int).GCD(nil, nil, e, new(big.Int).Sub(p, one)).Cmp(one) != 0 {
			t.Fatalf("%d bits: e divides prime %d minus one", bits, i)
		}
	}
	if d := new(big.Int).Sub(key.Primes[0], key.Primes[1]); d.BitLen() <= bits/2-100 {
		t.Fatalf("%d bits: |p-q| has %d bits, want more than %d", bits, d.BitLen(), bits/2-100)
	}
	digest := sampleLicense().Digest()
	sig, err := s.Sign(sampleLicense())
	if err != nil {
		t.Fatal(err)
	}
	if err := rsa.VerifyPKCS1v15(s.Public(), crypto.SHA256, digest[:], sig); err != nil {
		t.Fatalf("%d bits: stdlib verify: %v", bits, err)
	}
	sig[len(sig)-1] ^= 1
	if rsa.VerifyPKCS1v15(s.Public(), crypto.SHA256, digest[:], sig) == nil {
		t.Fatalf("%d bits: a flipped signature bit verifies", bits)
	}
}

func TestNewSignerKeySound(t *testing.T) {
	sizes := []int{512, 1024, MaxSignerBits(2048)}
	if testing.Short() {
		sizes = sizes[:2]
	}
	for _, bits := range sizes {
		s, err := NewSigner(rand.Reader, bits)
		if err != nil {
			t.Fatalf("%d bits: %v", bits, err)
		}
		checkKey(t, s, bits)
	}
}

// countingReader is crypto/rand behind a byte count that nothing
// synchronises: two goroutines reading it at once are a data race.
type countingReader struct{ n int }

func (c *countingReader) Read(p []byte) (int, error) {
	c.n += len(p)
	return rand.Read(p)
}

// TestNewSignerSharesReader: the two prime searches read a caller's
// reader that is not safe for concurrent use (run under -race).
func TestNewSignerSharesReader(t *testing.T) {
	r := &countingReader{}
	s, err := NewSigner(r, 512)
	if err != nil {
		t.Fatal(err)
	}
	if r.n == 0 {
		t.Fatal("NewSigner read nothing from its reader")
	}
	checkKey(t, s, 512)
}

func TestSignVerifyRoundTrip(t *testing.T) {
	s := testSigner()
	lic := sampleLicense()
	sig, err := s.Sign(lic)
	if err != nil {
		t.Fatalf("Sign: %v", err)
	}
	if len(sig) != s.Public().Size() {
		t.Errorf("signature length %d, want %d", len(sig), s.Public().Size())
	}
	if err := Verify(s.Public(), lic, sig); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestVerifyRejectsFieldTampering(t *testing.T) {
	s := testSigner()
	lic := sampleLicense()
	sig, err := s.Sign(lic)
	if err != nil {
		t.Fatal(err)
	}
	mutations := []func(*License){
		func(l *License) { l.SUID = "su-43" },
		func(l *License) { l.Issuer = "evil-sdc" },
		func(l *License) { l.Serial++ },
		func(l *License) { l.IssuedUnix++ },
		func(l *License) { l.ExpiresUnix += 3600 },
		func(l *License) { l.RequestDigest[0] ^= 1 },
	}
	for i, mut := range mutations {
		tampered := *lic
		mut(&tampered)
		if err := Verify(s.Public(), &tampered, sig); !errors.Is(err, ErrBadSignature) {
			t.Errorf("mutation %d: got %v, want ErrBadSignature", i, err)
		}
	}
}

func TestVerifyRejectsSignatureTampering(t *testing.T) {
	s := testSigner()
	lic := sampleLicense()
	sig, err := s.Sign(lic)
	if err != nil {
		t.Fatal(err)
	}
	sig[0] ^= 0x80
	if err := Verify(s.Public(), lic, sig); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("tampered signature: got %v", err)
	}
}

func TestCanonicalEncodingUnambiguous(t *testing.T) {
	// Moving a byte between adjacent string fields must change the
	// digest (length-prefixed framing prevents splicing).
	a := &License{SUID: "ab", Issuer: "c"}
	b := &License{SUID: "a", Issuer: "bc"}
	if a.Digest() == b.Digest() {
		t.Fatal("length-prefix framing broken: digests collide")
	}
}

func TestSignatureIntRoundTrip(t *testing.T) {
	s := testSigner()
	lic := sampleLicense()
	sig, err := s.Sign(lic)
	if err != nil {
		t.Fatal(err)
	}
	v := SignatureToInt(sig)
	back, err := IntToSignature(v, len(sig))
	if err != nil {
		t.Fatalf("IntToSignature: %v", err)
	}
	for i := range sig {
		if sig[i] != back[i] {
			t.Fatalf("byte %d mismatch after round trip", i)
		}
	}
	if err := VerifyInt(s.Public(), lic, v); err != nil {
		t.Fatalf("VerifyInt: %v", err)
	}
}

func TestSignatureIntLeadingZeros(t *testing.T) {
	// A signature with leading zero bytes loses them in the integer;
	// IntToSignature must restore the fixed width.
	sig := make([]byte, 16)
	sig[15] = 0x7f
	v := SignatureToInt(sig)
	back, err := IntToSignature(v, 16)
	if err != nil {
		t.Fatalf("IntToSignature: %v", err)
	}
	if len(back) != 16 || back[15] != 0x7f || back[0] != 0 {
		t.Fatalf("leading zeros not restored: %v", back)
	}
}

func TestVerifyIntRejectsMaskedValues(t *testing.T) {
	s := testSigner()
	lic := sampleLicense()
	sig, err := s.Sign(lic)
	if err != nil {
		t.Fatal(err)
	}
	v := SignatureToInt(sig)

	// Negative value (masked signature after centred decode).
	neg := new(big.Int).Neg(v)
	if err := VerifyInt(s.Public(), lic, neg); !errors.Is(err, ErrBadSignature) {
		t.Errorf("negative masked value: got %v", err)
	}
	// Oversized value.
	huge := new(big.Int).Lsh(v, 512)
	if err := VerifyInt(s.Public(), lic, huge); !errors.Is(err, ErrBadSignature) {
		t.Errorf("oversized masked value: got %v", err)
	}
	// Off-by-eta value of the right size.
	shifted := new(big.Int).Add(v, big.NewInt(12345))
	if err := VerifyInt(s.Public(), lic, shifted); !errors.Is(err, ErrBadSignature) {
		t.Errorf("shifted masked value: got %v", err)
	}
}

func TestMaxSignerBits(t *testing.T) {
	if got := MaxSignerBits(2048); got != 1984 {
		t.Errorf("MaxSignerBits(2048) = %d, want 1984", got)
	}
	// The resulting signature integer must fit under 2^(paillier-64),
	// comfortably below n/2 for any n of that size.
	s := testSigner()
	sig, err := s.Sign(sampleLicense())
	if err != nil {
		t.Fatal(err)
	}
	if SignatureToInt(sig).BitLen() > 1024 {
		t.Error("signature integer exceeds signer modulus size")
	}
}

func TestLicenseValidAt(t *testing.T) {
	lic := sampleLicense()
	if !lic.ValidAt(lic.IssuedUnix) {
		t.Error("license invalid at issuance")
	}
	if !lic.ValidAt(lic.ExpiresUnix) {
		t.Error("license invalid at expiry instant")
	}
	if lic.ValidAt(lic.IssuedUnix - 1) {
		t.Error("license valid before issuance")
	}
	if lic.ValidAt(lic.ExpiresUnix + 1) {
		t.Error("license valid after expiry")
	}
}

func FuzzIntToSignature(f *testing.F) {
	f.Add([]byte{0x01, 0x02}, 4)
	f.Add([]byte{}, 0)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff}, 2)
	f.Fuzz(func(t *testing.T, raw []byte, size int) {
		if size < 0 || size > 1<<16 {
			t.Skip()
		}
		v := new(big.Int).SetBytes(raw)
		sig, err := IntToSignature(v, size)
		if err != nil {
			return
		}
		if len(sig) != size {
			t.Fatalf("signature length %d, want %d", len(sig), size)
		}
		if SignatureToInt(sig).Cmp(v) != 0 {
			t.Fatal("round trip changed the value")
		}
	})
}

// BenchmarkNewSigner draws the signing key of pisa.DefaultParams:
// SignerBits = MaxSignerBits(2048).
func BenchmarkNewSigner(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := NewSigner(rand.Reader, MaxSignerBits(2048)); err != nil {
			b.Fatal(err)
		}
	}
}
