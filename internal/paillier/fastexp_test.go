package paillier

import (
	"crypto/rand"
	"math/big"
	"runtime"
	"sync"
	"testing"
	"time"
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
// and from a private base (what a key rebuilt from its bare modulus
// tables) are interchangeable: each decrypts under the same private
// key, and they compose homomorphically in both directions (enc fast /
// add legacy / dec, and vice versa).
func TestFastExpCrossParity(t *testing.T) {
	sk := fastKey(t, 512)
	legacy := PublicKey{N: sk.N}
	fast := sk.PublicKey

	a, err := fast.Encrypt(rand.Reader, big.NewInt(1234))
	if err != nil {
		t.Fatal(err)
	}
	b, err := legacy.Encrypt(rand.Reader, big.NewInt(-234))
	if err != nil {
		t.Fatal(err)
	}

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

	// Rerandomising a legacy ciphertext on the fast path preserves the
	// plaintext and changes the bits; and the other way round.
	ra, err := fast.Rerandomize(rand.Reader, b)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Equal(b) {
		t.Fatal("fast rerandomize left ciphertext unchanged")
	}
	if m, err := sk.DecryptInt(ra); err != nil || m != -234 {
		t.Fatalf("fast rerandomize of legacy ciphertext: m=%d err=%v", m, err)
	}
	rb, err := legacy.Rerandomize(rand.Reader, a)
	if err != nil {
		t.Fatal(err)
	}
	if m, err := sk.DecryptInt(rb); err != nil || m != 1234 {
		t.Fatalf("legacy rerandomize of fast ciphertext: m=%d err=%v", m, err)
	}
}

// TestFastExpNonceIsNthResidue checks the short-exponent construction
// produces genuine re-randomisation factors: h^s = (x^s)^n is an n-th
// residue, i.e. an encryption of zero.
func TestFastExpNonceIsNthResidue(t *testing.T) {
	sk := fastKey(t, 512)
	pk := sk.PublicKey
	for i := 0; i < 8; i++ {
		n, err := pk.NewNonce(rand.Reader)
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
	n, err := pk.NewNonce(rand.Reader)
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
// the same time (run under -race). A key with H tables H, so its
// ciphertexts decrypt on the short exponent; a bare modulus tables a
// private base, whose ciphertexts take the full one. A value copy of a
// prepared key shares its table.
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
	tables = NonceTables()
	cts = encryptAll(bare)
	if got := NonceTables() - tables; got != 1 {
		t.Fatalf("bare modulus: %d concurrent first nonces built %d tables, want 1", drawers, got)
	}
	if short, full := decryptAll(cts); short != 0 || full != drawers {
		t.Fatalf("ciphertexts under a private base: short/full = %d/%d, want 0/%d", short, full, drawers)
	}
}

// TestFastExpSharedTableRace hammers one tabled key from concurrent
// batch encryptions, nonce batches and rerandomisations. Run under
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
		if _, err := pk.EncryptBatch(rand.Reader, ms, 8); err != nil {
			errs <- err
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
			if _, err := pk.Rerandomize(rand.Reader, ct); err != nil {
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

// waitForGoroutines polls until the goroutine count drops back to at
// most want, failing after a generous deadline.
func waitForGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutine leak: %d alive, want <= %d", runtime.NumGoroutine(), want)
}

// TestNoncePoolCloseStopsRefills is the goroutine-leak regression test
// for the auto-refill machinery: after Close, no background refill may
// be running or ever start again.
func TestNoncePoolCloseStopsRefills(t *testing.T) {
	sk := fastKey(t, 256)
	baseline := runtime.NumGoroutine()
	pool := NewNoncePool(&sk.PublicKey, rand.Reader)
	if err := pool.SetAutoRefill(16); err != nil {
		t.Fatal(err)
	}
	// Drain an empty pool a few times to kick background refills off.
	for i := 0; i < 4; i++ {
		if _, err := pool.Get(); err != nil {
			t.Fatal(err)
		}
	}
	pool.Close()
	// Gets after Close still work (online generation) and must not
	// resurrect the refill goroutine.
	for i := 0; i < pool.Len()+2; i++ {
		if _, err := pool.Get(); err != nil {
			t.Fatal(err)
		}
	}
	if err := pool.SetAutoRefill(8); err == nil {
		t.Fatal("SetAutoRefill succeeded on a closed pool")
	}
	pool.Close() // double Close is fine
	waitForGoroutines(t, baseline)
}

// TestFullWidthNonceCounter pins what pisa_paillier_fullwidth_nonce_total
// counts: the r^n of EncryptWithNonce and nothing else — not what a key
// without H draws, nor the private base its table is built on.
func TestFullWidthNonceCounter(t *testing.T) {
	sk := fastKey(t, 512)
	bare := &PublicKey{N: sk.N}
	before := FullWidthNonces()
	ct, err := bare.Encrypt(rand.Reader, big.NewInt(7))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bare.Rerandomize(rand.Reader, ct); err != nil {
		t.Fatal(err)
	}
	if _, err := bare.NewNonce(rand.Reader); err != nil {
		t.Fatal(err)
	}
	if got := FullWidthNonces() - before; got != 0 {
		t.Fatalf("bare-modulus encrypt + rerandomize + nonce counted %d full-width nonces, want 0", got)
	}
	if _, err := sk.EncryptWithNonce(big.NewInt(7), big.NewInt(65537)); err != nil {
		t.Fatal(err)
	}
	if got := FullWidthNonces() - before; got != 1 {
		t.Fatalf("EncryptWithNonce counted %d full-width nonces, want 1", got)
	}
}

// TestPrepareMakesBareKeyShareable: a key that arrived with only its
// modulus is safe to hand to concurrent workers once Prepare ran (the
// lazy fill it replaces is an unsynchronised write; run under -race).
func TestPrepareMakesBareKeyShareable(t *testing.T) {
	sk := fastKey(t, 512)
	ct, err := sk.Encrypt(rand.Reader, big.NewInt(5))
	if err != nil {
		t.Fatal(err)
	}
	bare := (&PublicKey{N: sk.N}).Prepare()
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
