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

// TestSDCEntropyFailureNamesCell: every request draws its blinding
// tuples as it goes, so a draw that fails fails that request, with an
// error naming the cell it was blinding. Nothing of the failure stays
// behind: the next request succeeds.
func TestSDCEntropyFailureNamesCell(t *testing.T) {
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
	// before it reaches the blinding stage.
	if _, err := sdc.suKeys.Get("su-1"); err != nil {
		t.Fatal(err)
	}

	// Cells are blinded in order, so the failure lands on the first.
	src.failing.Store(true)
	_, err = sdc.ProcessRequest(req)
	src.failing.Store(false)
	if err == nil || !strings.Contains(err.Error(), "blind (0, 0)") || !strings.Contains(err.Error(), "injected entropy failure") {
		t.Fatalf("ProcessRequest with failing entropy: error = %v, want one naming cell (0, 0) and the failure", err)
	}

	resp, err := sdc.ProcessRequest(req)
	if err != nil {
		t.Fatalf("ProcessRequest after the failure: %v", err)
	}
	if _, err := su.OpenResponse(resp, req, sdc.VerifyKey()); err != nil {
		t.Fatalf("response after the failure: %v", err)
	}
}
