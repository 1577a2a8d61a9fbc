package paillier

import (
	"crypto/rand"
	"math/big"
	"sync"
	"testing"
	"testing/quick"
)

// This file tests subgroup-order decryption (DESIGN.md §10): whatever
// mix of nonces a ciphertext carries, the short exponent followed — if
// the check fails — by the continuation must return what the textbook
// full-exponent decryption returns, and the counters must say which of
// the two ran.

// subgroupKey is the shared key of this file: at 512 bits the subgroup
// orders are 64 bits, wide enough that a foreign nonce never lands in
// the subgroup by accident.
var subgroupKey = sync.OnceValue(func() *PrivateKey {
	sk, err := GenerateKey(rand.Reader, 512)
	if err != nil {
		panic(err)
	}
	return sk
})

// referenceDecrypt is the textbook Paillier decryption, without CRT and
// on the full exponent: m = L(c^lambda mod n^2) * mu mod n. It shares
// no code with decContext.decrypt.
func referenceDecrypt(sk *PrivateKey, ct *Ciphertext) *big.Int {
	pm1 := new(big.Int).Sub(sk.p.d, one)
	qm1 := new(big.Int).Sub(sk.q.d, one)
	lambda := new(big.Int).Mul(pm1, qm1)
	lambda.Div(lambda, new(big.Int).GCD(nil, nil, pm1, qm1))
	l := func(u *big.Int) *big.Int {
		u = new(big.Int).Sub(u, one)
		return u.Div(u, sk.N)
	}
	g := new(big.Int).Add(sk.N, one)
	mu := new(big.Int).ModInverse(l(new(big.Int).Exp(g, lambda, sk.nSquared)), sk.N)
	m := l(new(big.Int).Exp(ct.C, lambda, sk.nSquared))
	m.Mul(m, mu).Mod(m, sk.N)
	return sk.decode(m)
}

// decryptPath decrypts ct, checks the plaintext against the reference,
// and returns how the short and full counters moved.
func decryptPath(t testing.TB, sk *PrivateKey, ct *Ciphertext) (short, full uint64) {
	t.Helper()
	s0, f0 := Decrypts()
	got, err := sk.Decrypt(ct)
	if err != nil {
		t.Fatalf("decrypt: %v", err)
	}
	s1, f1 := Decrypts()
	if want := referenceDecrypt(sk, ct); got.Cmp(want) != 0 {
		t.Fatalf("decrypted %s, full-exponent reference %s", got, want)
	}
	return s1 - s0, f1 - f0
}

func wantShort(t testing.TB, what string, sk *PrivateKey, ct *Ciphertext) {
	t.Helper()
	if short, full := decryptPath(t, sk, ct); short != 1 || full != 0 {
		t.Fatalf("%s: short/full = %d/%d, want the short exponent alone", what, short, full)
	}
}

func wantFull(t testing.TB, what string, sk *PrivateKey, ct *Ciphertext) {
	t.Helper()
	if short, full := decryptPath(t, sk, ct); short != 0 || full != 1 {
		t.Fatalf("%s: short/full = %d/%d, want the continuation", what, short, full)
	}
}

// keyCopies returns the three shapes a party's copy of one public key
// takes: a value copy of the owner's (sharing its table), bare with H
// as it crosses a socket, and such a copy prepared by whoever received
// it. Each tables H on its first nonce.
func keyCopies(t testing.TB, sk *PrivateKey) map[string]*PublicKey {
	t.Helper()
	owner := sk.PublicKey
	return map[string]*PublicKey{
		"owner":    &owner,
		"bare":     {N: sk.N, H: sk.H},
		"prepared": (&PublicKey{N: sk.N, H: sk.H}).Prepare(),
	}
}

func foreignCiphertext(t testing.TB, pk *PublicKey, m *big.Int) *Ciphertext {
	t.Helper()
	r, err := pk.randomUnit(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := pk.EncryptWithNonce(m, r)
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

func TestGenerateKeySubgroupStructure(t *testing.T) {
	for _, bits := range []int{128, 256, 512} {
		sk, err := GenerateKey(rand.Reader, bits)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []crtPrime{sk.p, sk.q} {
			if got := c.a.BitLen(); got != bits/8 {
				t.Errorf("%d-bit key: subgroup order has %d bits, want %d", bits, got, bits/8)
			}
			if !c.a.ProbablyPrime(20) {
				t.Errorf("%d-bit key: subgroup order is composite", bits)
			}
			dm1 := new(big.Int).Sub(c.d, one)
			if new(big.Int).Mul(c.a, c.cofactor).Cmp(dm1) != 0 {
				t.Errorf("%d-bit key: a * cofactor != p-1", bits)
			}
			hd := new(big.Int).Mod(sk.H, c.dSquared)
			if hd.Cmp(one) == 0 || hd.Exp(hd, c.a, c.dSquared).Cmp(one) != 0 {
				t.Errorf("%d-bit key: H does not have order a modulo the prime square", bits)
			}
		}
		if err := sk.Public().Check(); err != nil {
			t.Errorf("%d-bit key: generated public key fails its own check: %v", bits, err)
		}
		// An n-th residue: its order divides phi(n), so H^phi = 1.
		phi := new(big.Int).Mul(new(big.Int).Sub(sk.p.d, one), new(big.Int).Sub(sk.q.d, one))
		if new(big.Int).Exp(sk.H, phi, sk.nSquared).Cmp(one) != 0 {
			t.Errorf("%d-bit key: H is not an n-th residue", bits)
		}
	}
}

// (a) everything Encrypt and PackEncrypt produce, on every copy of the
// key, decrypts on the short exponent.
func TestOwnNoncesDecryptShort(t *testing.T) {
	sk := subgroupKey()
	codec, err := NewSlotCodec(3, 40, 30)
	if err != nil {
		t.Fatal(err)
	}
	for name, pk := range keyCopies(t, sk) {
		ct, err := pk.Encrypt(rand.Reader, big.NewInt(-424242))
		if err != nil {
			t.Fatal(err)
		}
		wantShort(t, name+" Encrypt", sk, ct)
		vals := []*big.Int{big.NewInt(-5), big.NewInt(0), big.NewInt(1 << 29)}
		packed, err := pk.PackEncrypt(rand.Reader, codec, vals)
		if err != nil {
			t.Fatal(err)
		}
		wantShort(t, name+" PackEncrypt", sk, packed)
		slots, err := sk.DecryptSlots(codec, packed)
		if err != nil {
			t.Fatal(err)
		}
		for i := range vals {
			if slots[i].Cmp(vals[i]) != 0 {
				t.Fatalf("%s: slot %d = %s, want %s", name, i, slots[i], vals[i])
			}
		}
		wantShort(t, name+" NewNonce+RerandomizeWith", sk, refresh(t, pk, ct))
	}
}

// (b) a caller-chosen nonce is foreign: detected, continued, correct.
func TestForeignNonceContinues(t *testing.T) {
	sk := subgroupKey()
	for name, pk := range keyCopies(t, sk) {
		wantFull(t, name+" EncryptWithNonce", sk, foreignCiphertext(t, pk, big.NewInt(99)))
	}
	// A party holding the bare modulus tables a private base.
	private := &PublicKey{N: sk.N}
	ct, err := private.Encrypt(rand.Reader, big.NewInt(-3))
	if err != nil {
		t.Fatal(err)
	}
	wantFull(t, "private base", sk, ct)
}

// (c) homomorphic mixes: <H> is closed under every operation, so mixes
// of own-nonce ciphertexts stay short; one foreign operand makes the
// result foreign.
func TestHomomorphicMixesKeepTheirPath(t *testing.T) {
	sk := subgroupKey()
	copies := keyCopies(t, sk)
	codec, err := NewSlotCodec(3, 40, 30)
	if err != nil {
		t.Fatal(err)
	}
	check := func(a, b int64, alphaSeed uint64) bool {
		alpha := new(big.Int).SetUint64(alphaSeed | 1)
		alpha.Lsh(alpha, 36) // a 100-bit alpha, as the protocol's
		var own []*Ciphertext
		for _, pk := range copies {
			ct, err := pk.EncryptInt(rand.Reader, a)
			if err != nil {
				t.Fatal(err)
			}
			own = append(own, ct)
		}
		pk := copies["owner"]
		foreign := foreignCiphertext(t, pk, big.NewInt(b))
		nonce, err := pk.NewNonce(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		mix := func(x, y *Ciphertext) []*Ciphertext {
			sum, err := pk.Add(x, y)
			if err != nil {
				t.Fatal(err)
			}
			diff, err := pk.Sub(x, y)
			if err != nil {
				t.Fatal(err)
			}
			scaled, err := pk.ScalarMul(alpha, y)
			if err != nil {
				t.Fatal(err)
			}
			negScaled, err := pk.ScalarMul(new(big.Int).Neg(alpha), y)
			if err != nil {
				t.Fatal(err)
			}
			blinded, err := pk.Add(scaled, x) // c_i^alpha * c_j, eq. 14's shape
			if err != nil {
				t.Fatal(err)
			}
			shifted, err := pk.ScalarMul(codec.ShiftScalar(2), y)
			if err != nil {
				t.Fatal(err)
			}
			refreshed, err := pk.RerandomizeWith(y, nonce)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := pk.AddPlain(y, big.NewInt(a))
			if err != nil {
				t.Fatal(err)
			}
			return []*Ciphertext{sum, diff, scaled, negScaled, blinded, shifted, refreshed, plain}
		}
		for i, ct := range mix(own[0], own[1]) {
			if short, full := decryptPath(t, sk, ct); short != 1 || full != 0 {
				t.Errorf("own x own mix %d took the continuation", i)
				return false
			}
		}
		for i, ct := range append(mix(own[2], foreign), mix(foreign, own[2])[:2]...) {
			if short, full := decryptPath(t, sk, ct); short != 0 || full != 1 {
				t.Errorf("own x foreign mix %d stayed short", i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// (d) a key file from before the subgroup fields existed: same primes,
// no H, every decryption on the full exponent, and ciphertexts made
// under the new form of the key still open.
func TestLegacyGobDecryptsWithFullExponent(t *testing.T) {
	sk := subgroupKey()
	blob, err := gobEncode(struct{ P, Q *big.Int }{sk.p.d, sk.q.d})
	if err != nil {
		t.Fatal(err)
	}
	var old PrivateKey
	if err := old.GobDecode(blob); err != nil {
		t.Fatalf("old {P,Q} key refused: %v", err)
	}
	if old.H != nil || old.p.a.Cmp(one) != 0 || old.q.a.Cmp(one) != 0 {
		t.Fatal("old key grew a nonce base")
	}
	ct, err := sk.Encrypt(rand.Reader, big.NewInt(31337))
	if err != nil {
		t.Fatal(err)
	}
	wantFull(t, "new-form ciphertext under the old key", &old, ct)
	own, err := old.Encrypt(rand.Reader, big.NewInt(-8))
	if err != nil {
		t.Fatal(err)
	}
	wantFull(t, "old key's own ciphertext", &old, own)
	wantFull(t, "old key's ciphertext under the new form", sk, own)

	// The new encoding round-trips the subgroup and goes short again.
	blob, err = sk.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	var back PrivateKey
	if err := back.GobDecode(blob); err != nil {
		t.Fatal(err)
	}
	if !back.SameKey(sk.Public()) {
		t.Fatal("round trip lost the nonce base")
	}
	wantShort(t, "round-tripped key", &back, ct)
}

// TestPrivateKeyGobRejectsBadSubgroup: a key file whose subgroup fields
// do not fit its primes would decrypt wrongly without a sign of it.
func TestPrivateKeyGobRejectsBadSubgroup(t *testing.T) {
	sk := subgroupKey()
	good := privateKeyGob{P: sk.p.d, Q: sk.q.d, AP: sk.p.a, AQ: sk.q.a, H: sk.H}
	g := new(big.Int).Add(sk.N, one)
	tamper := map[string]func(*privateKeyGob){
		"order not dividing p-1": func(k *privateKeyGob) { k.AP = new(big.Int).Add(k.AP, two) },
		"zero order":             func(k *privateKeyGob) { k.AQ = new(big.Int) },
		"swapped orders":         func(k *privateKeyGob) { k.AP, k.AQ = k.AQ, k.AP },
		"orders without H":       func(k *privateKeyGob) { k.H = nil },
		"H without orders":       func(k *privateKeyGob) { k.AP, k.AQ = nil, nil },
		"H = 1":                  func(k *privateKeyGob) { k.H = big.NewInt(1) },
		"H = n^2":                func(k *privateKeyGob) { k.H = new(big.Int).Set(sk.nSquared) },
		"H sharing a factor":     func(k *privateKeyGob) { k.H = new(big.Int).Set(sk.p.d) },
		"H of the wrong order":   func(k *privateKeyGob) { k.H = new(big.Int).Mod(new(big.Int).Mul(k.H, g), sk.nSquared) },
	}
	for name, fn := range tamper {
		bad := good
		fn(&bad)
		blob, err := gobEncode(bad)
		if err != nil {
			t.Fatal(err)
		}
		var key PrivateKey
		if err := key.GobDecode(blob); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestPublicKeyCheck(t *testing.T) {
	sk := subgroupKey()
	if err := (&PublicKey{N: sk.N}).Check(); err != nil {
		t.Errorf("key without H refused: %v", err)
	}
	bad := map[string]*PublicKey{
		"nil modulus":     {},
		"tiny modulus":    {N: big.NewInt(35)},
		"H = 0":           {N: sk.N, H: new(big.Int)},
		"H = 1":           {N: sk.N, H: big.NewInt(1)},
		"negative H":      {N: sk.N, H: big.NewInt(-7)},
		"H = n^2":         {N: sk.N, H: new(big.Int).Set(sk.nSquared)},
		"H beyond n^2":    {N: sk.N, H: new(big.Int).Lsh(sk.nSquared, 4096)},
		"H a multiple p":  {N: sk.N, H: new(big.Int).Lsh(sk.p.d, 3)},
		"H = n":           {N: sk.N, H: new(big.Int).Set(sk.N)},
		"negative modulu": {N: new(big.Int).Neg(sk.N), H: sk.H},
	}
	for name, pk := range bad {
		if err := pk.Check(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if sk.Public().SameKey(&PublicKey{N: sk.N}) || !sk.Public().Equal(&PublicKey{N: sk.N}) {
		t.Error("SameKey must tell a key from its bare modulus, Equal must not")
	}
}

// TestThresholdUnchangedOnSubgroupKey: the additive shares are derived
// from lambda, which the subgroup structure does not touch.
func TestThresholdUnchangedOnSubgroupKey(t *testing.T) {
	sk := subgroupKey()
	shares, err := sk.SplitKey(rand.Reader, 3)
	if err != nil {
		t.Fatal(err)
	}
	own, err := sk.Encrypt(rand.Reader, big.NewInt(-271828))
	if err != nil {
		t.Fatal(err)
	}
	for _, ct := range []*Ciphertext{own, foreignCiphertext(t, sk.Public(), big.NewInt(314159))} {
		var partials []*Partial
		for _, s := range shares {
			p, err := s.PartialDecrypt(ct)
			if err != nil {
				t.Fatal(err)
			}
			partials = append(partials, p)
		}
		got, err := CombinePartials(sk.Public(), partials)
		if err != nil {
			t.Fatal(err)
		}
		if want := referenceDecrypt(sk, ct); got.Cmp(want) != 0 {
			t.Fatalf("threshold decryption %s, reference %s", got, want)
		}
	}
}

// TestSharedArmedKeyAcrossWorkers: one key, its table built by the
// first of the encryptions and decryptions several goroutines run at
// once (run under -race); every decryption must come out right and
// short.
func TestSharedArmedKeyAcrossWorkers(t *testing.T) {
	sk := fastKey(t, 512)
	const workers, each = 4, 8
	_, full0 := Decrypts()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ms := make([]*big.Int, each)
			for i := range ms {
				ms[i] = big.NewInt(int64(w*1000 + i - 17))
			}
			cts := make([]*Ciphertext, each)
			for i, m := range ms {
				ct, err := sk.Encrypt(rand.Reader, m)
				if err != nil {
					t.Error(err)
					return
				}
				cts[i] = ct
			}
			got, err := sk.DecryptBatch(cts, 2)
			if err != nil {
				t.Error(err)
				return
			}
			for i := range ms {
				one, err := sk.Decrypt(cts[i])
				if err != nil {
					t.Error(err)
					return
				}
				if got[i].Cmp(ms[i]) != 0 || one.Cmp(ms[i]) != 0 {
					t.Errorf("worker %d element %d: decrypted %s / %s, want %s", w, i, got[i], one, ms[i])
				}
			}
		}(w)
	}
	wg.Wait()
	if _, full := Decrypts(); full != full0 {
		t.Fatalf("%d decryptions of own-nonce ciphertexts took the continuation", full-full0)
	}
}

// FuzzShortThenContinue drives the decryption through arbitrary
// ciphertexts built from a message, a short-exponent nonce, an optional
// foreign nonce and a scalar, and holds the result to the reference.
func FuzzShortThenContinue(f *testing.F) {
	sk := subgroupKey()
	f.Add(int64(0), []byte{1}, []byte{}, int64(1))
	f.Add(int64(-12345), []byte{0xff, 0xee, 0xdd}, []byte{7}, int64(-3))
	f.Add(int64(1)<<40, []byte{}, []byte{2, 3, 5, 7, 11}, int64(1)<<50)
	f.Fuzz(func(t *testing.T, m int64, sRaw, rRaw []byte, k int64) {
		// c = ((1+n)^m * H^s * r^n)^k
		c := new(big.Int).Exp(sk.H, new(big.Int).SetBytes(sRaw), sk.nSquared)
		ct, err := sk.encryptWithRn(big.NewInt(m), c)
		if err != nil {
			t.Skip()
		}
		r := new(big.Int).SetBytes(rRaw)
		r.Mod(r, sk.N)
		foreign := r.Cmp(one) > 0 && new(big.Int).GCD(nil, nil, r, sk.N).Cmp(one) == 0
		if foreign {
			zero, err := sk.EncryptWithNonce(new(big.Int), r)
			if err != nil {
				t.Fatal(err)
			}
			if ct, err = sk.Add(ct, zero); err != nil {
				t.Fatal(err)
			}
		}
		if k != 0 {
			if ct, err = sk.ScalarMul(big.NewInt(k), ct); err != nil {
				t.Fatal(err)
			}
		}
		short, full := decryptPath(t, sk, ct)
		if short+full != 1 {
			t.Fatalf("one decryption counted %d short and %d full", short, full)
		}
		if !foreign && full != 0 {
			t.Fatal("a ciphertext with nonces in <H> only took the continuation")
		}
	})
}
