package paillier

import (
	"crypto/rand"
	"errors"
	"io"
	"math/big"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// testKey returns a shared small key so the suite stays fast. 256-bit
// moduli still leave > 120 bits of signed plaintext headroom, far more
// than any test message uses.
var testKey = sync.OnceValue(func() *PrivateKey {
	sk, err := GenerateKey(rand.Reader, 256)
	if err != nil {
		panic(err)
	}
	return sk
})

func mustEncrypt(t *testing.T, pk *PublicKey, m int64) *Ciphertext {
	t.Helper()
	ct, err := pk.EncryptInt(rand.Reader, m)
	if err != nil {
		t.Fatalf("encrypt %d: %v", m, err)
	}
	return ct
}

// newNonce draws one precomputed nonce: a NewNonceBatch of one.
func newNonce(pk *PublicKey, random io.Reader) (*Nonce, error) {
	ns, err := pk.NewNonceBatch(random, 1, 1)
	if err != nil {
		return nil, err
	}
	return ns[0], nil
}

// refresh re-randomises ct the way an SU refreshes a request (§VI-A):
// a precomputed nonce, applied by RerandomizeWith.
func refresh(t testing.TB, pk *PublicKey, ct *Ciphertext) *Ciphertext {
	t.Helper()
	n, err := newNonce(pk, rand.Reader)
	if err != nil {
		t.Fatalf("nonce: %v", err)
	}
	rr, err := pk.RerandomizeWith(ct, n)
	if err != nil {
		t.Fatalf("rerandomize: %v", err)
	}
	return rr
}

func mustDecrypt(t *testing.T, sk *PrivateKey, ct *Ciphertext) int64 {
	t.Helper()
	v, err := sk.DecryptInt(ct)
	if err != nil {
		t.Fatalf("decrypt: %v", err)
	}
	return v
}

func TestGenerateKeyRejectsSmallModulus(t *testing.T) {
	if _, err := GenerateKey(rand.Reader, 64); err != ErrKeyTooSmall {
		t.Fatalf("got %v, want ErrKeyTooSmall", err)
	}
}

func TestGenerateKeyModulusBits(t *testing.T) {
	for _, bits := range []int{128, 256, 320} {
		sk, err := GenerateKey(rand.Reader, bits)
		if err != nil {
			t.Fatalf("GenerateKey(%d): %v", bits, err)
		}
		if got := sk.N.BitLen(); got != bits {
			t.Errorf("modulus bits = %d, want %d", got, bits)
		}
		if new(big.Int).Mul(sk.p.d, sk.q.d).Cmp(sk.N) != 0 {
			t.Errorf("p*q != n")
		}
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	sk := testKey()
	tests := []int64{0, 1, -1, 42, -42, 1 << 40, -(1 << 40), 1<<59 - 1, -(1<<59 - 1)}
	for _, m := range tests {
		ct := mustEncrypt(t, &sk.PublicKey, m)
		if got := mustDecrypt(t, sk, ct); got != m {
			t.Errorf("round trip %d: got %d", m, got)
		}
	}
}

func TestEncryptRejectsOutOfDomain(t *testing.T) {
	sk := testKey()
	big1 := new(big.Int).Rsh(sk.N, 1) // exactly n/2: out of (-n/2, n/2)
	if _, err := sk.PublicKey.Encrypt(rand.Reader, big1); err != ErrMessageTooLarge {
		t.Fatalf("n/2: got %v, want ErrMessageTooLarge", err)
	}
	neg := new(big.Int).Neg(big1)
	if _, err := sk.PublicKey.Encrypt(rand.Reader, neg); err != ErrMessageTooLarge {
		t.Fatalf("-n/2: got %v, want ErrMessageTooLarge", err)
	}
	// Just inside the domain must succeed.
	inside := new(big.Int).Sub(big1, big.NewInt(1))
	ct, err := sk.PublicKey.Encrypt(rand.Reader, inside)
	if err != nil {
		t.Fatalf("n/2-1: %v", err)
	}
	got, err := sk.Decrypt(ct)
	if err != nil {
		t.Fatalf("decrypt: %v", err)
	}
	if got.Cmp(inside) != 0 {
		t.Fatalf("n/2-1 round trip: got %s", got)
	}
}

func TestEncryptionIsProbabilistic(t *testing.T) {
	sk := testKey()
	a := mustEncrypt(t, &sk.PublicKey, 7)
	b := mustEncrypt(t, &sk.PublicKey, 7)
	if a.Equal(b) {
		t.Fatal("two encryptions of the same message were identical")
	}
}

func TestHomomorphicAddition(t *testing.T) {
	sk := testKey()
	pk := &sk.PublicKey
	prop := func(a, b int32) bool {
		ca := mustEncrypt(t, pk, int64(a))
		cb := mustEncrypt(t, pk, int64(b))
		sum, err := pk.Add(ca, cb)
		if err != nil {
			t.Fatalf("add: %v", err)
		}
		return mustDecrypt(t, sk, sum) == int64(a)+int64(b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestHomomorphicSubtraction(t *testing.T) {
	sk := testKey()
	pk := &sk.PublicKey
	prop := func(a, b int32) bool {
		ca := mustEncrypt(t, pk, int64(a))
		cb := mustEncrypt(t, pk, int64(b))
		diff, err := pk.Sub(ca, cb)
		if err != nil {
			t.Fatalf("sub: %v", err)
		}
		return mustDecrypt(t, sk, diff) == int64(a)-int64(b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestHomomorphicScalarMul(t *testing.T) {
	sk := testKey()
	pk := &sk.PublicKey
	prop := func(a, k int32) bool {
		ca := mustEncrypt(t, pk, int64(a))
		prod, err := pk.ScalarMulInt(int64(k), ca)
		if err != nil {
			t.Fatalf("scalar mul: %v", err)
		}
		return mustDecrypt(t, sk, prod) == int64(a)*int64(k)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestScalarMulByZero(t *testing.T) {
	sk := testKey()
	ct := mustEncrypt(t, &sk.PublicKey, 12345)
	z, err := sk.PublicKey.ScalarMulInt(0, ct)
	if err != nil {
		t.Fatalf("scalar mul 0: %v", err)
	}
	if got := mustDecrypt(t, sk, z); got != 0 {
		t.Fatalf("0*m = %d, want 0", got)
	}
}

func TestNeg(t *testing.T) {
	sk := testKey()
	for _, m := range []int64{0, 5, -5, 1 << 50} {
		ct := mustEncrypt(t, &sk.PublicKey, m)
		n, err := sk.PublicKey.Neg(ct)
		if err != nil {
			t.Fatalf("neg: %v", err)
		}
		if got := mustDecrypt(t, sk, n); got != -m {
			t.Errorf("neg(%d) = %d", m, got)
		}
	}
}

func TestAddPlain(t *testing.T) {
	sk := testKey()
	pk := &sk.PublicKey
	prop := func(a, k int32) bool {
		ca := mustEncrypt(t, pk, int64(a))
		sum, err := pk.AddPlain(ca, big.NewInt(int64(k)))
		if err != nil {
			t.Fatalf("add plain: %v", err)
		}
		return mustDecrypt(t, sk, sum) == int64(a)+int64(k)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestRerandomizePreservesPlaintextChangesCiphertext(t *testing.T) {
	sk := testKey()
	ct := mustEncrypt(t, &sk.PublicKey, 909)
	rr := refresh(t, &sk.PublicKey, ct)
	if rr.Equal(ct) {
		t.Fatal("rerandomized ciphertext identical to original")
	}
	if got := mustDecrypt(t, sk, rr); got != 909 {
		t.Fatalf("rerandomized plaintext = %d, want 909", got)
	}
}

func TestValidateRejectsBadCiphertexts(t *testing.T) {
	sk := testKey()
	pk := &sk.PublicKey
	ok := mustEncrypt(t, pk, 1)
	bad := []*Ciphertext{
		nil,
		{C: nil},
		{C: big.NewInt(0)},
		{C: new(big.Int).Neg(big.NewInt(3))},
		{C: new(big.Int).Set(pk.NSquared())},
	}
	for i, ct := range bad {
		if _, err := pk.Add(ok, ct); err == nil {
			t.Errorf("bad ciphertext %d accepted by Add", i)
		}
		if _, err := sk.Decrypt(ct); err == nil {
			t.Errorf("bad ciphertext %d accepted by Decrypt", i)
		}
	}
}

func TestHomomorphicCompositionMatchesAffineFormula(t *testing.T) {
	// D(eps * (alpha*E(i) - E(beta))) == eps*(alpha*i - beta): the exact
	// composite PISA's blinding layer performs (eq. 14).
	sk := testKey()
	pk := &sk.PublicKey
	prop := func(i int32, alphaSeed, betaSeed uint16, epsBit bool) bool {
		alpha := int64(alphaSeed) + 2 // >= 2
		beta := int64(betaSeed) % alpha
		eps := int64(1)
		if epsBit {
			eps = -1
		}
		ci := mustEncrypt(t, pk, int64(i))
		scaled, err := pk.ScalarMulInt(alpha, ci)
		if err != nil {
			t.Fatalf("scale: %v", err)
		}
		cbeta := mustEncrypt(t, pk, beta)
		diff, err := pk.Sub(scaled, cbeta)
		if err != nil {
			t.Fatalf("sub: %v", err)
		}
		v, err := pk.ScalarMulInt(eps, diff)
		if err != nil {
			t.Fatalf("eps: %v", err)
		}
		return mustDecrypt(t, sk, v) == eps*(alpha*int64(i)-beta)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCiphertextBytes(t *testing.T) {
	sk := testKey()
	want := (2*sk.N.BitLen() + 7) / 8
	if got := sk.PublicKey.CiphertextBytes(); got != want {
		t.Fatalf("CiphertextBytes = %d, want %d", got, want)
	}
}

func TestRandomSignedBounds(t *testing.T) {
	limit := new(big.Int).Lsh(big.NewInt(1), 64)
	sawNeg := false
	for i := 0; i < 64; i++ {
		v, err := RandomSigned(rand.Reader, 64, true)
		if err != nil {
			t.Fatalf("RandomSigned: %v", err)
		}
		if v.CmpAbs(limit) >= 0 {
			t.Fatalf("|%s| >= 2^64", v)
		}
		if v.Sign() < 0 {
			sawNeg = true
		}
	}
	if !sawNeg {
		t.Error("64 draws produced no negative value; sign bit looks broken")
	}
}

func TestRandomInRange(t *testing.T) {
	lo, hi := big.NewInt(100), big.NewInt(110)
	for i := 0; i < 50; i++ {
		v, err := RandomInRange(rand.Reader, lo, hi)
		if err != nil {
			t.Fatalf("RandomInRange: %v", err)
		}
		if v.Cmp(lo) < 0 || v.Cmp(hi) >= 0 {
			t.Fatalf("%s outside [100, 110)", v)
		}
	}
	if _, err := RandomInRange(rand.Reader, hi, lo); err == nil {
		t.Fatal("inverted range accepted")
	}
}

func TestPublicKeyEqual(t *testing.T) {
	sk := testKey()
	other, err := GenerateKey(rand.Reader, 256)
	if err != nil {
		t.Fatalf("GenerateKey: %v", err)
	}
	if !sk.PublicKey.Equal(&sk.PublicKey) {
		t.Error("key not equal to itself")
	}
	if sk.PublicKey.Equal(&other.PublicKey) {
		t.Error("distinct keys reported equal")
	}
	if sk.PublicKey.Equal(nil) {
		t.Error("nil key reported equal")
	}
}

func TestDeserializedPublicKeyWorks(t *testing.T) {
	// A key rebuilt from its modulus and nonce base (as it crosses a
	// socket) must encrypt and operate correctly; one rebuilt from its
	// modulus alone draws no nonce.
	sk := testKey()
	wire := &PublicKey{N: new(big.Int).Set(sk.N), H: new(big.Int).Set(sk.H)}
	ct, err := wire.EncryptInt(rand.Reader, -777)
	if err != nil {
		t.Fatalf("encrypt with a key off the wire: %v", err)
	}
	if got := mustDecrypt(t, sk, ct); got != -777 {
		t.Fatalf("round trip = %d", got)
	}
	bare := &PublicKey{N: new(big.Int).Set(sk.N)}
	if _, err := bare.EncryptInt(rand.Reader, 1); !errors.Is(err, ErrNoNonceBase) {
		t.Fatalf("encrypt under a bare modulus: %v, want ErrNoNonceBase", err)
	}
	if _, err := bare.NewNonceBatch(rand.Reader, 3, 1); !errors.Is(err, ErrNoNonceBase) {
		t.Fatalf("nonces under a bare modulus: %v, want ErrNoNonceBase", err)
	}
}

func TestNoncePoolRerandomize(t *testing.T) {
	sk := testKey()
	pk := &sk.PublicKey
	ct := mustEncrypt(t, pk, 321)
	nonce, err := newNonce(pk, rand.Reader)
	if err != nil {
		t.Fatalf("nonce: %v", err)
	}
	rr, err := pk.RerandomizeWith(ct, nonce)
	if err != nil {
		t.Fatalf("RerandomizeWith: %v", err)
	}
	if rr.Equal(ct) {
		t.Fatal("nonce refresh did not change the ciphertext")
	}
	if got := mustDecrypt(t, sk, rr); got != 321 {
		t.Fatalf("nonce refresh changed plaintext: %d", got)
	}
	if _, err := pk.RerandomizeWith(ct, nil); err == nil {
		t.Error("nil nonce accepted")
	}
	if _, err := pk.RerandomizeWith(nil, nonce); err == nil {
		t.Error("nil ciphertext accepted")
	}
}

func TestNonceRefreshMuchCheaperThanFresh(t *testing.T) {
	// The whole point of precomputing: applying a nonce is one modular
	// multiplication, so it beats a fresh exponentiation clearly.
	sk := testKey()
	pk := &sk.PublicKey
	ct := mustEncrypt(t, pk, 5)
	nonces := make([]*Nonce, 64)
	for i := range nonces {
		n, err := newNonce(pk, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		nonces[i] = n
	}
	startPool := time.Now()
	for _, n := range nonces {
		if _, err := pk.RerandomizeWith(ct, n); err != nil {
			t.Fatal(err)
		}
	}
	pooled := time.Since(startPool)
	startFresh := time.Now()
	for range nonces {
		refresh(t, pk, ct)
	}
	fresh := time.Since(startFresh)
	if pooled*2 > fresh {
		t.Errorf("pooled refresh (%v) not clearly cheaper than fresh (%v)", pooled, fresh)
	}
}

func TestPrivateKeyGobRoundTrip(t *testing.T) {
	sk := testKey()
	blob, err := sk.GobEncode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	var back PrivateKey
	if err := back.GobDecode(blob); err != nil {
		t.Fatalf("decode: %v", err)
	}
	// The restored key must decrypt ciphertexts made under the
	// original and vice versa.
	ct := mustEncrypt(t, &sk.PublicKey, -9876)
	if got := mustDecrypt(t, &back, ct); got != -9876 {
		t.Fatalf("restored key decrypted %d", got)
	}
	ct2 := mustEncrypt(t, &back.PublicKey, 555)
	if got := mustDecrypt(t, sk, ct2); got != 555 {
		t.Fatalf("original key decrypted %d", got)
	}
	var corrupt PrivateKey
	if err := corrupt.GobDecode([]byte("junk")); err == nil {
		t.Error("junk key accepted")
	}
	// A non-prime factor must be rejected.
	bad, err := gobEncode(privateKeyGob{P: big.NewInt(15), Q: big.NewInt(13)})
	if err != nil {
		t.Fatal(err)
	}
	if err := corrupt.GobDecode(bad); err == nil {
		t.Error("composite factor accepted")
	}
}

// TestPrivateKeyGobRejectsTinyAndEvenKeys: a key file must meet the
// floor GenerateKey and PublicKey.Check enforce, and both its primes
// must be odd, which 2 is not although it passes ProbablyPrime.
func TestPrivateKeyGobRejectsTinyAndEvenKeys(t *testing.T) {
	big130, err := Prime(rand.Reader, 130)
	if err != nil {
		t.Fatal(err)
	}
	for name, pq := range map[string][2]*big.Int{
		"P = 2, Q = 3":             {big.NewInt(2), big.NewInt(3)},
		"40-bit modulus":           {big.NewInt(1000003), big.NewInt(1000033)},
		"P = 2 beside a 130-bit Q": {big.NewInt(2), big130},
		"Q = 2 beside a 130-bit P": {big130, big.NewInt(2)},
	} {
		blob, err := gobEncode(privateKeyGob{P: pq[0], Q: pq[1]})
		if err != nil {
			t.Fatal(err)
		}
		var sk PrivateKey
		if err := sk.GobDecode(blob); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func FuzzDecryptArbitraryCiphertext(f *testing.F) {
	sk := testKey()
	f.Add([]byte{0x01})
	f.Add(sk.N.Bytes())
	f.Add(sk.NSquared().Bytes())
	f.Fuzz(func(t *testing.T, raw []byte) {
		ct := &Ciphertext{C: new(big.Int).SetBytes(raw)}
		// Arbitrary values must either decrypt to something inside
		// the plaintext domain or error — never panic.
		if m, err := sk.Decrypt(ct); err == nil {
			if m.CmpAbs(new(big.Int).Rsh(sk.N, 1)) > 0 {
				t.Fatalf("decrypted value %s outside centred domain", m)
			}
		}
	})
}
