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
// refill failure used to be swallowed while auto-refill stayed off
// with nothing left to observe. The failure must disarm explicitly, be
// counted, be returned by exactly one Get, and a SetAutoRefill must
// re-arm the pool.
func TestNoncePoolRefillFailureDisarmsExplicitly(t *testing.T) {
	pk := &batchKey().PublicKey
	src := &flakyReader{}
	pool := NewNoncePool(pk, src)
	if err := pool.SetAutoRefill(4); err != nil {
		t.Fatal(err)
	}
	errs0 := pmetrics().refillErrs.Value()

	// With the source failing, the Get below finds the pool empty,
	// kicks off a background refill (which fails), and its own online
	// fallback fails too.
	src.failing.Store(true)
	if _, err := pool.Get(); err == nil {
		t.Fatal("Get succeeded with a failing entropy source")
	}
	pool.Wait()
	src.failing.Store(false)

	if got := pmetrics().refillErrs.Value() - errs0; got != 1 {
		t.Errorf(`refills_total{result="error"} grew by %d, want 1`, got)
	}

	// Exactly one Get surfaces the background failure...
	if _, err := pool.Get(); err == nil || !strings.Contains(err.Error(), "background nonce refill") {
		t.Fatalf("Get did not surface the refill failure, got %v", err)
	}
	// ...and later Gets work again via online generation, with no
	// refill behind them: the failure disarmed the pool.
	if _, err := pool.Get(); err != nil {
		t.Fatalf("Get after surfaced failure: %v", err)
	}
	pool.Wait()
	if got := pool.Len(); got != 0 {
		t.Errorf("Len after a disarmed Get = %d, want 0 (refill ran)", got)
	}

	// Re-arming restores refills.
	if err := pool.SetAutoRefill(4); err != nil {
		t.Fatal(err)
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
