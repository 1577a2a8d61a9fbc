package paillier

import (
	"crypto/rand"
	"errors"
	"math/big"
	"math/bits"
	mrand "math/rand"
	"sync"
	"testing"
)

func fastKey(t testing.TB, bits int) *PrivateKey {
	t.Helper()
	sk, err := GenerateKey(rand.Reader, bits)
	if err != nil {
		t.Fatal(err)
	}
	return sk
}

// TestFastExpCrossParity proves ciphertexts drawn from the published H
// and ones carrying a foreign nonce r^n (what a sender that drew its
// own nonce sends) are interchangeable: each decrypts under the same
// private key, and they compose homomorphically in both directions,
// under the owner's key and under a copy of its bare modulus, which
// draws no nonce but adds.
func TestFastExpCrossParity(t *testing.T) {
	sk := fastKey(t, 512)
	legacy := PublicKey{N: sk.N}
	fast := sk.PublicKey

	a, err := fast.Encrypt(rand.Reader, big.NewInt(1234))
	if err != nil {
		t.Fatal(err)
	}
	b := foreignCiphertext(t, &fast, big.NewInt(-234))

	// Fast ciphertext decrypts directly.
	if m, err := sk.DecryptInt(a); err != nil || m != 1234 {
		t.Fatalf("decrypt fast ciphertext: m=%d err=%v", m, err)
	}

	// fast + legacy, summed under the legacy key view.
	sum, err := legacy.Add(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if m, err := sk.DecryptInt(sum); err != nil || m != 1000 {
		t.Fatalf("fast+legacy sum: m=%d err=%v", m, err)
	}

	// legacy + fast, summed under the fast key view.
	sum2, err := fast.Add(b, a)
	if err != nil {
		t.Fatal(err)
	}
	if m, err := sk.DecryptInt(sum2); err != nil || m != 1000 {
		t.Fatalf("legacy+fast sum: m=%d err=%v", m, err)
	}

	// Rerandomising a foreign ciphertext on the fast path preserves the
	// plaintext and changes the bits.
	ra := refresh(t, &fast, b)
	if ra.Equal(b) {
		t.Fatal("fast rerandomize left ciphertext unchanged")
	}
	if m, err := sk.DecryptInt(ra); err != nil || m != -234 {
		t.Fatalf("fast rerandomize of foreign ciphertext: m=%d err=%v", m, err)
	}
}

// TestFastExpNonceIsNthResidue checks the short-exponent construction
// produces genuine re-randomisation factors: h^s = (x^s)^n is an n-th
// residue, i.e. an encryption of zero.
func TestFastExpNonceIsNthResidue(t *testing.T) {
	sk := fastKey(t, 512)
	pk := sk.PublicKey
	for i := 0; i < 8; i++ {
		n, err := newNonce(&pk, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		if m, err := sk.DecryptInt(&Ciphertext{C: n.rn}); err != nil || m != 0 {
			t.Fatalf("fast nonce %d is not an encryption of zero: m=%d err=%v", i, m, err)
		}
	}
	// And it actually refreshes a ciphertext in place.
	ct, err := pk.EncryptInt(rand.Reader, 77)
	if err != nil {
		t.Fatal(err)
	}
	n, err := newNonce(&pk, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	re, err := pk.RerandomizeWith(ct, n)
	if err != nil {
		t.Fatal(err)
	}
	if re.Equal(ct) {
		t.Fatal("RerandomizeWith(fast nonce) left ciphertext unchanged")
	}
	if m, err := sk.DecryptInt(re); err != nil || m != 77 {
		t.Fatalf("refresh with fast nonce: m=%d err=%v", m, err)
	}
}

// TestFirstNonceBuildsOneTable: a key builds its nonce table on its
// first nonce, once, however many goroutines draw that first nonce at
// the same time (run under -race). A key tables H, so its ciphertexts
// decrypt on the short exponent; a bare modulus builds no table and
// draws no nonce. A value copy of a prepared key shares its table.
func TestFirstNonceBuildsOneTable(t *testing.T) {
	sk := fastKey(t, 512)
	const drawers = 8
	encryptAll := func(pk *PublicKey) []*Ciphertext {
		t.Helper()
		cts := make([]*Ciphertext, drawers)
		var wg sync.WaitGroup
		for i := range cts {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				ct, err := pk.EncryptInt(rand.Reader, int64(i-3))
				if err != nil {
					t.Error(err)
					return
				}
				cts[i] = ct
			}(i)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		return cts
	}
	decryptAll := func(cts []*Ciphertext) (short, full uint64) {
		t.Helper()
		s0, f0 := Decrypts()
		for i, ct := range cts {
			if m, err := sk.DecryptInt(ct); err != nil || m != int64(i-3) {
				t.Fatalf("ciphertext %d: m=%d err=%v", i, m, err)
			}
		}
		s1, f1 := Decrypts()
		return s1 - s0, f1 - f0
	}

	pk := (&PublicKey{N: sk.N, H: sk.H}).Prepare()
	copied := *pk
	if pk.NonceTableBytes() != 0 {
		t.Fatal("Prepare built a nonce table")
	}
	tables := NonceTables()
	cts := encryptAll(pk)
	if got := NonceTables() - tables; got != 1 {
		t.Fatalf("%d concurrent first nonces built %d tables, want 1", drawers, got)
	}
	if short, full := decryptAll(cts); short != drawers || full != 0 {
		t.Fatalf("ciphertexts under H: short/full = %d/%d, want %d/0", short, full, drawers)
	}
	if size := pk.NonceTableBytes(); size <= 0 || copied.NonceTableBytes() != size {
		t.Fatalf("table %d bytes, copy taken after Prepare sees %d", size, copied.NonceTableBytes())
	}
	tables = NonceTables()
	if _, err := copied.EncryptInt(rand.Reader, 1); err != nil {
		t.Fatal(err)
	}
	if got := NonceTables() - tables; got != 0 {
		t.Fatalf("copy of a tabled key built %d more tables", got)
	}

	bare := (&PublicKey{N: sk.N}).Prepare()
	tables, nonces := NonceTables(), Nonces()
	if _, err := bare.EncryptInt(rand.Reader, 1); !errors.Is(err, ErrNoNonceBase) {
		t.Fatalf("encrypt under a bare modulus: %v, want ErrNoNonceBase", err)
	}
	if NonceTables() != tables || Nonces() != nonces || bare.NonceTableBytes() != 0 {
		t.Fatal("a bare modulus built a table or counted a nonce")
	}
}

// TestFastExpSharedTableRace hammers one tabled key from concurrent
// encryptions, nonce batches and rerandomisations. Run under
// -race in CI: the table must be read-only once built.
func TestFastExpSharedTableRace(t *testing.T) {
	sk := fastKey(t, 512)
	pk := &sk.PublicKey
	ct, err := pk.EncryptInt(rand.Reader, 3)
	if err != nil {
		t.Fatal(err)
	}
	ms := make([]*big.Int, 24)
	for i := range ms {
		ms[i] = big.NewInt(int64(i - 12))
	}
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	wg.Add(3)
	go func() {
		defer wg.Done()
		for _, m := range ms {
			if _, err := pk.Encrypt(rand.Reader, m); err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		if _, err := pk.NewNonceBatch(rand.Reader, 24, 8); err != nil {
			errs <- err
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 24; i++ {
			n, err := newNonce(pk, rand.Reader)
			if err == nil {
				_, err = pk.RerandomizeWith(ct, n)
			}
			if err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestPrepareMakesBareKeyShareable: a key that arrived with only its
// modulus and nonce base is safe to hand to concurrent workers once
// Prepare ran (the lazy fill it replaces is an unsynchronised write;
// run under -race).
func TestPrepareMakesBareKeyShareable(t *testing.T) {
	sk := fastKey(t, 512)
	ct, err := sk.Encrypt(rand.Reader, big.NewInt(5))
	if err != nil {
		t.Fatal(err)
	}
	bare := (&PublicKey{N: sk.N, H: sk.H}).Prepare()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := bare.ScalarMul(big.NewInt(-1), ct); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

// TestLeanTableSameNonces: a key prepared lean tables the same base in
// a comb 2805/126 (22x) smaller, and one short exponent s gives the
// same nonce H^s from it as from the full comb and as from
// big.Int.Exp, so its ciphertexts decrypt on the short path. A lean flag set after the
// build leaves the built table alone.
func TestLeanTableSameNonces(t *testing.T) {
	sk := fastKey(t, 768)
	full := (&PublicKey{N: sk.N, H: sk.H}).Prepare()
	lean := (&PublicKey{N: sk.N, H: sk.H}).PrepareLean()
	for seed := int64(1); seed <= 8; seed++ {
		s, err := rand.Int(mrand.New(mrand.NewSource(seed)), shortExpLimit)
		if err != nil || s.Sign() == 0 {
			t.Fatalf("seed %d: s=%v err=%v", seed, s, err)
		}
		want := new(big.Int).Exp(sk.H, s, full.NSquared())
		for name, pk := range map[string]*PublicKey{"full": full, "lean": lean} {
			nonce, err := newNonce(pk, mrand.New(mrand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			if nonce.rn.Cmp(want) != 0 {
				t.Fatalf("seed %d: %s comb's nonce is not H^s", seed, name)
			}
		}
	}

	// The full comb is fbexp's where the lane kernel is off, and the
	// lane comb of the same 2805 entries, one limb per word, where it
	// runs.
	word := bits.UintSize / 8
	limbs := len(sk.N.Bits())
	fbFull := 11 * 255 * 2 * limbs * word
	if lm := full.squareLanes(); lm != nil {
		if got, want := full.NonceTableBytes(), 2805*lm.n*8; got != want {
			t.Errorf("full lane comb %d B, want %d (11 blocks of height 8, %d limbs)", got, want, lm.n)
		}
		was := SetLaneKernel(false)
		off := (&PublicKey{N: sk.N, H: sk.H}).Prepare()
		_, err := newNonce(off, rand.Reader)
		SetLaneKernel(was)
		if err != nil {
			t.Fatal(err)
		}
		if got := off.NonceTableBytes(); got != fbFull {
			t.Errorf("full comb, kernel off: %d B, want %d (11 blocks of height 8)", got, fbFull)
		}
	} else if got := full.NonceTableBytes(); got != fbFull {
		t.Errorf("full comb %d B, want %d (11 blocks of height 8)", got, fbFull)
	}
	if got, want := lean.NonceTableBytes(), 2*63*2*limbs*word; got != want {
		t.Errorf("lean comb %d B, want %d (2 blocks of height 6)", got, want)
	}
	if 126*fbFull != 2805*lean.NonceTableBytes() {
		t.Errorf("full/lean = %d/%d B, want 2805/126", fbFull, lean.NonceTableBytes())
	}

	s0, f0 := Decrypts()
	ct, err := lean.EncryptInt(rand.Reader, -42)
	if err != nil {
		t.Fatal(err)
	}
	if m, err := sk.DecryptInt(ct); err != nil || m != -42 {
		t.Fatalf("lean ciphertext: m=%d err=%v", m, err)
	}
	if s1, f1 := Decrypts(); s1-s0 != 1 || f1 != f0 {
		t.Fatalf("lean ciphertext decrypted short/full = %d/%d, want 1/0", s1-s0, f1-f0)
	}

	size := full.NonceTableBytes()
	if full.PrepareLean(); full.NonceTableBytes() != size {
		t.Fatalf("PrepareLean on a tabled key: %d B, was %d", full.NonceTableBytes(), size)
	}
}
