package pisa

import (
	"crypto/rand"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"pisa/internal/geo"
)

// flakyRandom delegates to crypto/rand until failing is flipped, then
// errors every read.
type flakyRandom struct {
	failing atomic.Bool
}

func (f *flakyRandom) Read(p []byte) (int, error) {
	if f.failing.Load() {
		return 0, fmt.Errorf("injected entropy failure")
	}
	return rand.Read(p)
}

// Regression test for the silently-disarmed blinding refill bug: a
// background refill failure used to be handed to the first
// ProcessRequest that saw it and then forgotten, while auto-refill
// stayed off with nothing left to observe. The failure must now
// disarm explicitly, stay readable via BlindingRefillErr, surface in
// exactly one ProcessRequest, and clear only when
// EnableBlindingAutoRefill re-arms the pool.
func TestSDCBlindingRefillFailureDisarmsExplicitly(t *testing.T) {
	wp := testWatchParams(t)
	params := TestParams(wp)
	stp, err := NewSTP(rand.Reader, params.PaillierBits)
	if err != nil {
		t.Fatalf("NewSTP: %v", err)
	}
	src := &flakyRandom{}
	sdc, err := NewSDC("sdc-test", params, nil, stp, WithRandom(src))
	if err != nil {
		t.Fatalf("NewSDC: %v", err)
	}
	defer sdc.Close()
	su, err := NewSU(rand.Reader, "su-1", 7, params, sdc.Planner(), stp.GroupKey())
	if err != nil {
		t.Fatalf("NewSU: %v", err)
	}
	defer su.Close()
	if err := stp.RegisterSU("su-1", su.PublicKey()); err != nil {
		t.Fatalf("RegisterSU: %v", err)
	}
	req, err := su.PrepareRequest(map[int]int64{1: 1}, geo.Disclosure{})
	if err != nil {
		t.Fatal(err)
	}

	// Fetch and arm the SU's key while entropy still works: arming draws
	// randomness of its own and would otherwise fail the request below
	// before it reaches the blinding pool.
	if _, err := sdc.suKeys.Get("su-1"); err != nil {
		t.Fatal(err)
	}

	if err := sdc.EnableBlindingAutoRefill(4); err != nil {
		t.Fatal(err)
	}
	if !sdc.BlindingAutoRefillArmed() {
		t.Fatal("SDC not armed after EnableBlindingAutoRefill")
	}

	// With entropy failing, this request finds the pool empty, kicks
	// off a background refill (which fails), and its own online
	// blinding fallback fails too.
	src.failing.Store(true)
	if _, err := sdc.ProcessRequest(req); err == nil {
		t.Fatal("ProcessRequest succeeded with a failing entropy source")
	}
	sdc.WaitBlindingRefill()
	src.failing.Store(false)

	if sdc.BlindingAutoRefillArmed() {
		t.Error("refill failure did not disarm auto-refill")
	}
	if sdc.BlindingRefillErr() == nil {
		t.Error("BlindingRefillErr lost the refill failure")
	}

	// Exactly one ProcessRequest surfaces the background failure...
	if _, err := sdc.ProcessRequest(req); err == nil || !strings.Contains(err.Error(), "background blinding refill") {
		t.Fatalf("ProcessRequest did not surface the refill failure, got %v", err)
	}
	// ...and the next one works again via online blinding, while the
	// sticky error stays readable.
	if _, err := sdc.ProcessRequest(req); err != nil {
		t.Fatalf("ProcessRequest after surfaced failure: %v", err)
	}
	if sdc.BlindingRefillErr() == nil {
		t.Error("sticky BlindingRefillErr cleared by a request")
	}

	// Re-arming clears the sticky error and restores refills.
	if err := sdc.EnableBlindingAutoRefill(4); err != nil {
		t.Fatal(err)
	}
	if err := sdc.BlindingRefillErr(); err != nil {
		t.Errorf("BlindingRefillErr after re-arm = %v, want nil", err)
	}
	if _, err := sdc.ProcessRequest(req); err != nil {
		t.Fatal(err)
	}
	sdc.WaitBlindingRefill()
	if got := sdc.PooledBlinding(); got == 0 {
		t.Error("recovered auto-refill never restocked the pool")
	}
}
