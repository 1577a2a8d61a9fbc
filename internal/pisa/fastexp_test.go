package pisa

import (
	"crypto/rand"
	"math/big"
	"runtime"
	"testing"
	"time"

	"pisa/internal/geo"
	"pisa/internal/paillier"
	"pisa/internal/watch"
)

// newDeploymentEngine builds a deployment with the fixed-base engine
// explicitly on or off (newDeployment itself follows TestParams, which
// arms it).
func newDeploymentEngine(t *testing.T, engine bool) *deployment {
	t.Helper()
	wp := testWatchParams(t)
	params := TestParams(wp)
	params.FastExp = engine
	stp, err := NewSTP(rand.Reader, params.PaillierBits)
	if err != nil {
		t.Fatalf("NewSTP: %v", err)
	}
	if engine {
		if err := stp.SetFastExp(params.FastExpWindow, params.ShortExpBits); err != nil {
			t.Fatalf("SetFastExp: %v", err)
		}
	}
	sdc, err := NewSDC("sdc-test", params, nil, stp)
	if err != nil {
		t.Fatalf("NewSDC: %v", err)
	}
	oracle, err := watch.NewSystem(wp, nil)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	return &deployment{params: params, stp: stp, sdc: sdc, oracle: oracle}
}

// TestEngineOnOffDecisionParity runs the same scenario through an
// engine-armed deployment and a legacy one: both must agree with the
// plaintext oracle on every decision.
func TestEngineOnOffDecisionParity(t *testing.T) {
	for _, engine := range []bool{false, true} {
		name := "legacy"
		if engine {
			name = "engine"
		}
		t.Run(name, func(t *testing.T) {
			d := newDeploymentEngine(t, engine)
			if got := d.stp.GroupKey().FastExpEnabled(); got != engine {
				t.Fatalf("group key engine state %v, want %v", got, engine)
			}
			su := d.newSU(t, "su-1", 7)
			eirp := map[int]int64{1: maxEIRP(d)}

			req, err := su.PrepareRequest(eirp, geo.Disclosure{})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := d.decide(t, su, req).Granted, d.oracleDecision(t, 7, eirp); got != want {
				t.Fatalf("no-PU decision %v, oracle says %v", got, want)
			}

			pu := d.newPU(t, "tv-1", 8)
			d.tune(t, pu, 1, d.params.Watch.Quantize(d.params.Watch.SMinPUmW))
			req2, err := su.PrepareRequest(eirp, geo.Disclosure{})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := d.decide(t, su, req2).Granted, d.oracleDecision(t, 7, eirp); got != want {
				t.Fatalf("active-PU decision %v, oracle says %v", got, want)
			}

			// The refresh path (pooled nonces) must preserve decisions too.
			if err := su.PrecomputeNonces(8); err != nil {
				t.Fatal(err)
			}
			req3, err := su.RefreshRequest(withoutDigest(req2))
			if err != nil {
				t.Fatal(err)
			}
			if got, want := d.decide(t, su, req3).Granted, d.oracleDecision(t, 7, eirp); got != want {
				t.Fatalf("refreshed decision %v, oracle says %v", got, want)
			}
		})
	}
}

// TestSTPSetFastExpArmsRegistry verifies SetFastExp arms the group key
// and both already-registered and later-registered SU keys, without
// mutating the key objects the SUs handed in.
func TestSTPSetFastExpArmsRegistry(t *testing.T) {
	wp := testWatchParams(t)
	params := TestParams(wp)
	params.FastExp = false // arm manually below
	stp, err := NewSTP(rand.Reader, params.PaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	sdc, err := NewSDC("sdc-test", params, nil, stp)
	if err != nil {
		t.Fatal(err)
	}
	d := &deployment{params: params, stp: stp, sdc: sdc}

	before := d.newSU(t, "su-before", 3)
	if err := stp.SetFastExp(0, 0); err != nil {
		t.Fatalf("SetFastExp: %v", err)
	}
	after := d.newSU(t, "su-after", 5)

	if !stp.GroupKey().FastExpEnabled() {
		t.Fatal("group key not armed")
	}
	for _, id := range []string{"su-before", "su-after"} {
		pk, err := stp.SUKey(id)
		if err != nil {
			t.Fatal(err)
		}
		if !pk.FastExpEnabled() {
			t.Fatalf("registered key %q not armed", id)
		}
	}
	// The SUs' own key objects stay untouched (the STP armed copies):
	// params.FastExp is false, so NewSU did not arm them either.
	if before.PublicKey().FastExpEnabled() || after.PublicKey().FastExpEnabled() {
		t.Fatal("STP mutated a caller's key object")
	}

	// A conversion through the armed registry still decrypts to ±1
	// under the SU's private key.
	v, err := stp.GroupKey().Encrypt(rand.Reader, big.NewInt(-42))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := stp.ConvertSigns(&SignRequest{SUID: "su-before", V: []*paillier.Ciphertext{v}, Slots: 1, SlotBits: 64, AnswerBits: 64})
	if err != nil {
		t.Fatal(err)
	}
	m, err := before.key.DecryptInt(resp.X[0])
	if err != nil {
		t.Fatal(err)
	}
	if m != -1 {
		t.Fatalf("sign conversion through armed key: got %d, want -1", m)
	}
}

// TestDistSTPSetFastExp mirrors the registry-arming check for the
// distributed combiner.
func TestDistSTPSetFastExp(t *testing.T) {
	dist, _, err := NewDistSTP(rand.Reader, 768, 2)
	if err != nil {
		t.Fatal(err)
	}
	skSU, err := paillier.GenerateKey(rand.Reader, 768)
	if err != nil {
		t.Fatal(err)
	}
	if err := dist.RegisterSU("su-1", skSU.Public()); err != nil {
		t.Fatal(err)
	}
	if err := dist.SetFastExp(0, 0); err != nil {
		t.Fatal(err)
	}
	if !dist.GroupKey().FastExpEnabled() {
		t.Fatal("group key not armed")
	}
	pk, err := dist.SUKey("su-1")
	if err != nil {
		t.Fatal(err)
	}
	if !pk.FastExpEnabled() {
		t.Fatal("registered SU key not armed")
	}
	if skSU.PublicKey.FastExpEnabled() {
		t.Fatal("DistSTP mutated the caller's key object")
	}
	v, err := dist.GroupKey().Encrypt(rand.Reader, big.NewInt(17))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := dist.ConvertSigns(&SignRequest{SUID: "su-1", V: []*paillier.Ciphertext{v}, Slots: 1, SlotBits: 64, AnswerBits: 64})
	if err != nil {
		t.Fatal(err)
	}
	m, err := skSU.DecryptInt(resp.X[0])
	if err != nil {
		t.Fatal(err)
	}
	if m != 1 {
		t.Fatalf("sign conversion: got %d, want +1", m)
	}
}

// waitGoroutines polls until the goroutine count drops to at most
// want.
func waitGoroutines(t *testing.T, want int) {
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

// TestSUCloseStopsNonceRefills is the SU-side leak regression: Close
// stops the nonce pool's background refills.
func TestSUCloseStopsNonceRefills(t *testing.T) {
	baseline := runtime.NumGoroutine()
	d := newDeployment(t)
	su := d.newSU(t, "su-1", 7)
	if err := su.EnableNonceAutoRefill(8); err != nil {
		t.Fatal(err)
	}
	req, err := su.PrepareRequest(map[int]int64{1: 1}, geo.Disclosure{})
	if err != nil {
		t.Fatal(err)
	}
	req = withoutDigest(req)
	// Refreshing drains the (empty) pool and kicks a refill off.
	if _, err := su.RefreshRequest(req); err != nil {
		t.Fatal(err)
	}
	su.Close()
	if err := su.EnableNonceAutoRefill(8); err == nil {
		t.Fatal("EnableNonceAutoRefill succeeded on a closed SU")
	}
	// Refreshes still work after Close (online nonce generation).
	if _, err := su.RefreshRequest(req); err != nil {
		t.Fatalf("RefreshRequest after Close: %v", err)
	}
	su.Close() // double Close is fine
	d.sdc.Close()
	waitGoroutines(t, baseline)
}
