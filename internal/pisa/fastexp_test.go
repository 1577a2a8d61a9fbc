package pisa

import (
	"crypto/rand"
	"errors"
	"runtime"
	"testing"
	"time"

	"pisa/internal/geo"
	"pisa/internal/paillier"
)

// bareGroupSTP serves the group key as a peer from before the nonce
// base was published holds it: the bare modulus.
type bareGroupSTP struct {
	*STP
	bare *paillier.PublicKey
}

func (b bareGroupSTP) GroupKey() *paillier.PublicKey { return b.bare }

// TestEngineOnOffDecisionParity runs the same scenario through a
// deployment whose senders table the published H ("engine"): it must
// agree with the plaintext oracle on every decision, fresh and
// refreshed, and the STP must decrypt every ciphertext on the short
// exponent. A deployment over an STP that serves the bare modulus, as a
// peer from before H was published did ("legacy"), is refused when its
// SDC is built, fresh or restored: it could draw no nonce.
func TestEngineOnOffDecisionParity(t *testing.T) {
	t.Run("legacy", func(t *testing.T) {
		params := TestParams(testWatchParams(t))
		stp, err := NewSTP(rand.Reader, params.PaillierBits)
		if err != nil {
			t.Fatal(err)
		}
		front := bareGroupSTP{STP: stp, bare: &paillier.PublicKey{N: stp.GroupKey().N}}
		if _, err := NewSDC("sdc-test", params, nil, front); !errors.Is(err, paillier.ErrNoNonceBase) {
			t.Errorf("NewSDC over a bare group key: %v, want ErrNoNonceBase", err)
		}
		if _, err := RestoreSDC("sdc-test", params, nil, front, nil, nil); !errors.Is(err, paillier.ErrNoNonceBase) {
			t.Errorf("RestoreSDC over a bare group key: %v, want ErrNoNonceBase", err)
		}
	})
	t.Run("engine", func(t *testing.T) {
		d := newDeployment(t)
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

		// The refresh path (precomputed nonces) must preserve decisions too.
		if err := su.PrecomputeNonces(8); err != nil {
			t.Fatal(err)
		}
		req3, err := su.RerandomizeRequest(req2)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := d.decide(t, su, req3).Granted, d.oracleDecision(t, 7, eirp); got != want {
			t.Fatalf("refreshed decision %v, oracle says %v", got, want)
		}
		if _, full := paillier.Decrypts(); full != full0 {
			t.Fatalf("%d full decryptions at the STP", full-full0)
		}
	})
}

// TestKeyWithoutNonceBaseRefused: both STP flavours refuse to register
// an SU key without its nonce base H (ErrNoNonceBase) and store
// nothing; the same key with H registers.
func TestKeyWithoutNonceBaseRefused(t *testing.T) {
	single, err := NewSTP(rand.Reader, 768)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := NewDistSTP(rand.Reader, 768, 2)
	if err != nil {
		t.Fatal(err)
	}
	skSU, err := paillier.GenerateKey(rand.Reader, 256)
	if err != nil {
		t.Fatal(err)
	}
	for name, stp := range map[string]interface {
		RegisterSU(string, *paillier.PublicKey) error
		SUKey(string) (*paillier.PublicKey, error)
	}{"stp": single, "dist": dist} {
		err := stp.RegisterSU("su-1", &paillier.PublicKey{N: skSU.N})
		if !errors.Is(err, paillier.ErrNoNonceBase) {
			t.Errorf("%s: RegisterSU of a bare modulus: %v, want ErrNoNonceBase", name, err)
		}
		if _, err := stp.SUKey("su-1"); err == nil {
			t.Errorf("%s: a refused key was stored", name)
		}
		if err := stp.RegisterSU("su-1", skSU.Public()); err != nil {
			t.Errorf("%s: RegisterSU with H: %v", name, err)
		}
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
	dist, err := NewDistSTP(rand.Reader, 768, 2)
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
			// Encrypted under a copy, so the group key's own table stays
			// unbuilt.
			g := stp.GroupKey()
			v, err := (&paillier.PublicKey{N: g.N, H: g.H}).PrepareLean().EncryptInt(rand.Reader, -42)
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

// TestSUCloseStopsNonceRefills is the SU-side leak regression: a
// refresh draws the nonces its precomputed ones do not cover inline, so
// no goroutine outlives it, and the deprecated EnableNonceAutoRefill
// and Close are no-ops that leave the SU working.
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
	if _, err := su.RerandomizeRequest(req); err != nil {
		t.Fatal(err)
	}
	su.Close()
	if _, err := su.RerandomizeRequest(req); err != nil {
		t.Fatalf("RerandomizeRequest after Close: %v", err)
	}
	if len(su.nonces) != 0 {
		t.Fatalf("%d nonces left after dry refreshes, want 0", len(su.nonces))
	}
	d.sdc.Close()
	waitGoroutines(t, baseline)
}
