package paillier

import (
	"crypto/rand"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"testing"
)

// flakyReader delegates to crypto/rand until failing is flipped, then
// errors every read. SharedReader serialises access, but the flag is
// flipped from the test goroutine while refill goroutines read, so it
// is atomic.
type flakyReader struct {
	failing atomic.Bool
}

func (f *flakyReader) Read(p []byte) (int, error) {
	if f.failing.Load() {
		return 0, fmt.Errorf("injected entropy failure")
	}
	return rand.Read(p)
}

var _ io.Reader = (*flakyReader)(nil)

// Regression test for the silently-disarmed refill bug: a background
// refill failure used to be cleared by the first Get that saw it,
// while auto-refill stayed off with nothing left to observe. The
// failure must now disarm explicitly, stay readable via RefillErr,
// be returned by exactly one Get, and clear only when SetAutoRefill
// re-arms the pool.
func TestNoncePoolRefillFailureDisarmsExplicitly(t *testing.T) {
	pk := &batchKey().PublicKey
	src := &flakyReader{}
	pool := NewNoncePool(pk, src)
	if err := pool.SetAutoRefill(4); err != nil {
		t.Fatal(err)
	}
	if !pool.AutoRefillArmed() {
		t.Fatal("pool not armed after SetAutoRefill")
	}

	// With the source failing, the Get below finds the pool empty,
	// kicks off a background refill (which fails), and its own online
	// fallback fails too.
	src.failing.Store(true)
	if _, err := pool.Get(); err == nil {
		t.Fatal("Get succeeded with a failing entropy source")
	}
	pool.Wait()
	src.failing.Store(false)

	if pool.AutoRefillArmed() {
		t.Error("refill failure did not disarm auto-refill")
	}
	if pool.RefillErr() == nil {
		t.Error("RefillErr lost the refill failure")
	}

	// Exactly one Get surfaces the background failure...
	if _, err := pool.Get(); err == nil || !strings.Contains(err.Error(), "background nonce refill") {
		t.Fatalf("Get did not surface the refill failure, got %v", err)
	}
	// ...and later Gets work again via online generation, while the
	// sticky error stays readable.
	if _, err := pool.Get(); err != nil {
		t.Fatalf("Get after surfaced failure: %v", err)
	}
	if pool.RefillErr() == nil {
		t.Error("sticky RefillErr cleared by a Get")
	}

	// Re-arming clears the sticky error and restores refills.
	if err := pool.SetAutoRefill(4); err != nil {
		t.Fatal(err)
	}
	if err := pool.RefillErr(); err != nil {
		t.Errorf("RefillErr after re-arm = %v, want nil", err)
	}
	if !pool.AutoRefillArmed() {
		t.Error("pool not armed after re-arm")
	}
	if _, err := pool.Get(); err != nil {
		t.Fatal(err)
	}
	pool.Wait()
	if got := pool.Len(); got != 4 {
		t.Fatalf("Len after recovered refill = %d, want 4", got)
	}
	pool.Close()
}
