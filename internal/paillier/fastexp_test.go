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

// TestFastExpCrossParity proves fast-path and legacy (full-width r^n,
// what a key rebuilt from its bare modulus draws) ciphertexts are
// interchangeable: each decrypts under the same private key, and they
// compose homomorphically in both directions (enc fast / add legacy /
// dec, and vice versa).
func TestFastExpCrossParity(t *testing.T) {
	sk := fastKey(t, 512)
	legacy := PublicKey{N: sk.N}
	fast := sk.PublicKey
	if err := fast.EnableFastExp(rand.Reader, 0, 0); err != nil {
		t.Fatal(err)
	}
	if !fast.FastExpEnabled() || legacy.FastExpEnabled() {
		t.Fatalf("engine arming leaked across copies: fast=%v legacy=%v",
			fast.FastExpEnabled(), legacy.FastExpEnabled())
	}

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
	if err := pk.EnableFastExp(rand.Reader, 5, 128); err != nil {
		t.Fatal(err)
	}
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

// TestEnableFastExpLifecycle covers idempotence, disable/re-enable and
// parameter validation.
func TestEnableFastExpLifecycle(t *testing.T) {
	sk := fastKey(t, 512)
	pk := sk.PublicKey
	if pk.FastExpSizeBytes() != 0 {
		t.Fatal("disarmed key reports non-zero table size")
	}
	if err := pk.EnableFastExp(rand.Reader, 4, 128); err != nil {
		t.Fatal(err)
	}
	size := pk.FastExpSizeBytes()
	if size <= 0 {
		t.Fatalf("armed key reports table size %d", size)
	}
	// Second enable is a no-op — even with parameters that would be
	// rejected on a fresh key.
	if err := pk.EnableFastExp(rand.Reader, 99, 1); err != nil {
		t.Fatalf("idempotent re-enable: %v", err)
	}
	if got := pk.FastExpSizeBytes(); got != size {
		t.Fatalf("re-enable rebuilt the table: size %d -> %d", size, got)
	}
	pk.DisableFastExp()
	if pk.FastExpEnabled() {
		t.Fatal("DisableFastExp left engine armed")
	}
	// Legacy path still works after disable.
	ct, err := pk.EncryptInt(rand.Reader, 5)
	if err != nil {
		t.Fatal(err)
	}
	if m, err := sk.DecryptInt(ct); err != nil || m != 5 {
		t.Fatalf("post-disable encrypt: m=%d err=%v", m, err)
	}
	// Fresh enable after disable works, and bad widths are rejected.
	if err := pk.EnableFastExp(rand.Reader, 0, 0); err != nil {
		t.Fatalf("re-enable after disable: %v", err)
	}
	pk2 := sk.PublicKey
	if err := pk2.EnableFastExp(rand.Reader, 0, 32); err == nil {
		t.Fatal("EnableFastExp accepted a 32-bit short exponent")
	}
}

// TestFastExpSharedTableRace hammers one armed key from concurrent
// batch encryptions, nonce batches and rerandomisations. Run under
// -race in CI: the table must be read-only after arming.
func TestFastExpSharedTableRace(t *testing.T) {
	sk := fastKey(t, 512)
	pk := &sk.PublicKey
	if err := pk.EnableFastExp(rand.Reader, 0, 0); err != nil {
		t.Fatal(err)
	}
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
	pool := NewNoncePool(&sk.PublicKey, rand.Reader, 4)
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
// counts: every nonce factor computed as r^n by full-width
// exponentiation, whichever entry point asked for it, and nothing an
// armed key does — arming itself included.
func TestFullWidthNonceCounter(t *testing.T) {
	sk := fastKey(t, 512)
	ops := func(pk *PublicKey) {
		t.Helper()
		ct, err := pk.Encrypt(rand.Reader, big.NewInt(7))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pk.Rerandomize(rand.Reader, ct); err != nil {
			t.Fatal(err)
		}
		if _, err := pk.NewNonce(rand.Reader); err != nil {
			t.Fatal(err)
		}
	}
	bare := &PublicKey{N: sk.N}
	before := FullWidthNonces()
	ops(bare)
	if got := FullWidthNonces() - before; got != 3 {
		t.Fatalf("unarmed encrypt + rerandomize + nonce counted %d full-width nonces, want 3", got)
	}
	before = FullWidthNonces()
	if err := bare.EnableFastExp(rand.Reader, 0, 0); err != nil {
		t.Fatal(err)
	}
	ops(bare)
	if got := FullWidthNonces() - before; got != 0 {
		t.Fatalf("arming and armed operations counted %d full-width nonces, want 0", got)
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
