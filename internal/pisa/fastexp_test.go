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

// bareGroupSTP serves the group key as a peer from before the nonce
// base was published holds it: the bare modulus.
type bareGroupSTP struct {
	*STP
	bare *paillier.PublicKey
}

func (b bareGroupSTP) GroupKey() *paillier.PublicKey { return b.bare }

// newDeploymentEngine builds a deployment whose SDC, SUs and PUs hold
// the group key with its published nonce base H (engine) or as its bare
// modulus (legacy): then every nonce they draw comes from a private
// base, and the STP decrypts it on the full exponent.
func newDeploymentEngine(t *testing.T, engine bool) *deployment {
	t.Helper()
	wp := testWatchParams(t)
	params := TestParams(wp)
	stp, err := NewSTP(rand.Reader, params.PaillierBits)
	if err != nil {
		t.Fatalf("NewSTP: %v", err)
	}
	var front STPService = stp
	if !engine {
		front = bareGroupSTP{STP: stp, bare: &paillier.PublicKey{N: stp.GroupKey().N}}
	}
	sdc, err := NewSDC("sdc-test", params, nil, front)
	if err != nil {
		t.Fatalf("NewSDC: %v", err)
	}
	oracle, err := watch.NewSystem(wp, nil)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	return &deployment{params: params, stp: stp, sdc: sdc, oracle: oracle}
}

// TestEngineOnOffDecisionParity runs the same scenario through a
// deployment whose senders table the published H and one whose senders
// table private bases: both must agree with the plaintext oracle on
// every decision, and the STP's decrypt counters must say which nonces
// it saw.
func TestEngineOnOffDecisionParity(t *testing.T) {
	for _, engine := range []bool{false, true} {
		name := "legacy"
		if engine {
			name = "engine"
		}
		t.Run(name, func(t *testing.T) {
			d := newDeploymentEngine(t, engine)
			_, full0 := paillier.Decrypts()
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
			if _, full := paillier.Decrypts(); (full > full0) != !engine {
				t.Fatalf("%d full decryptions at the STP with engine=%v", full-full0, engine)
			}
		})
	}
}

// TestSUKeysTableOnFirstConversion: both STP flavours keep their own
// prepared copy of a registered SU key, and that copy tables its nonce
// base on the first answer encrypted under it — never at registration,
// never in the caller's key object. The group key, which an STP only
// decrypts under, builds no table at all.
func TestSUKeysTableOnFirstConversion(t *testing.T) {
	single, err := NewSTP(rand.Reader, 768)
	if err != nil {
		t.Fatal(err)
	}
	dist, _, err := NewDistSTP(rand.Reader, 768, 2)
	if err != nil {
		t.Fatal(err)
	}
	for name, stp := range map[string]interface {
		STPService
		RegisterSU(string, *paillier.PublicKey) error
	}{"stp": single, "dist": dist} {
		t.Run(name, func(t *testing.T) {
			skSU, err := paillier.GenerateKey(rand.Reader, 768)
			if err != nil {
				t.Fatal(err)
			}
			if err := stp.RegisterSU("su-1", skSU.Public()); err != nil {
				t.Fatal(err)
			}
			stored, err := stp.SUKey("su-1")
			if err != nil {
				t.Fatal(err)
			}
			if stored == skSU.Public() || stored.NonceTableBytes() != 0 {
				t.Fatal("registry shares the caller's key object or tabled it at registration")
			}
			// A full-width nonce keeps the group key's own table unbuilt.
			v, err := stp.GroupKey().EncryptWithNonce(big.NewInt(-42), big.NewInt(65537))
			if err != nil {
				t.Fatal(err)
			}
			tables := paillier.NonceTables()
			resp, err := stp.ConvertSigns(&SignRequest{SUID: "su-1", V: []*paillier.Ciphertext{v}, Slots: 1, SlotBits: 64, AnswerBits: 64})
			if err != nil {
				t.Fatal(err)
			}
			if m, err := skSU.DecryptInt(resp.X[0]); err != nil || m != -1 {
				t.Fatalf("sign conversion: m=%d err=%v, want -1", m, err)
			}
			if got := paillier.NonceTables() - tables; got != 1 || stored.NonceTableBytes() == 0 {
				t.Fatalf("first conversion built %d tables (stored key %d bytes), want the stored key's one",
					got, stored.NonceTableBytes())
			}
			if skSU.NonceTableBytes() != 0 || stp.GroupKey().NonceTableBytes() != 0 {
				t.Fatal("a conversion tabled the caller's key object or the group key")
			}
		})
	}
	if err := single.SetFastExp(8, 256); err != nil {
		t.Fatalf("deprecated SetFastExp: %v", err)
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
