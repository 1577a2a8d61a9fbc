package pisa

import (
	"fmt"
	"sync"
	"testing"

	"pisa/internal/geo"
	"pisa/internal/paillier"
)

// TestConcurrentRequestsAndUpdates hammers one SDC with parallel SU
// requests and PU updates; run with -race to check the locking. Every
// decision must still match what a serial oracle would say given that
// updates and requests interleave — here we only require protocol
// integrity (no errors, verifiable responses), since interleaving
// makes the "current" budget ambiguous by design.
func TestConcurrentRequestsAndUpdates(t *testing.T) {
	d := newDeployment(t)
	const (
		workers  = 4
		rounds   = 3
		puBlock  = geo.BlockID(8)
		puSignal = 10_000
	)
	sus := make([]*SU, workers)
	for i := range sus {
		sus[i] = d.newSU(t, fmt.Sprintf("su-%d", i), geo.BlockID(i))
	}
	pu := d.newPU(t, "tv-conc", puBlock)

	var wg sync.WaitGroup
	errs := make(chan error, workers+1)

	// One goroutine keeps flipping the PU.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds*2; r++ {
			var (
				u   *PUUpdate
				err error
			)
			if r%2 == 0 {
				u, err = pu.Tune(r%d.params.Watch.Channels, puSignal)
			} else {
				u, err = pu.Off()
			}
			if err != nil {
				errs <- err
				return
			}
			if err := d.sdc.HandlePUUpdate(u); err != nil {
				errs <- err
				return
			}
		}
	}()

	// The SUs request concurrently.
	for i := range sus {
		wg.Add(1)
		go func(su *SU) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				req, err := su.PrepareRequest(map[int]int64{r % d.params.Watch.Channels: 1000}, geo.Disclosure{})
				if err != nil {
					errs <- err
					return
				}
				resp, err := d.sdc.ProcessRequest(req)
				if err != nil {
					errs <- err
					return
				}
				if _, err := su.OpenResponse(resp, req, d.sdc.VerifyKey()); err != nil {
					errs <- err
					return
				}
			}
		}(sus[i])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent worker: %v", err)
	}
}

// TestNoncePoolAccounting checks the refresh's nonce bookkeeping.
// RerandomizeRequest takes the SU's precomputed nonces first and draws
// only the shortfall, in one batch: paillier.Nonces() moves by exactly
// that. On a CPU with the lane kernel the batch fills whole runs of
// eight, so a dry refresh of G ciphertexts pads at most 7 nonce lanes.
func TestNoncePoolAccounting(t *testing.T) {
	d := newDeployment(t)
	su := d.newSU(t, "su-nonce", 7)
	req, err := su.PrepareRequest(map[int]int64{0: 100}, geo.Disclosure{})
	if err != nil {
		t.Fatal(err)
	}
	cells := req.Ciphertexts()
	if cells <= 8 {
		t.Fatalf("a request of %d ciphertexts fills no lane run", cells)
	}

	if err := su.PrecomputeNonces(-1); err == nil {
		t.Error("negative count accepted")
	}
	drawn := paillier.Nonces()
	if err := su.PrecomputeNonces(cells + 3); err != nil {
		t.Fatal(err)
	}
	if got := paillier.Nonces() - drawn; got != uint64(cells+3) {
		t.Fatalf("precomputing %d nonces drew %d", cells+3, got)
	}
	lanes := paillier.SetLaneKernel(true)
	paillier.SetLaneKernel(lanes)
	for _, step := range []struct {
		name        string
		held, short int // precomputed nonces before the refresh, and the shortfall
	}{
		{"covered", cells + 3, 0},
		{"partly covered", 3, cells - 3},
		{"dry", 0, cells},
	} {
		if got := len(su.nonces); got != step.held {
			t.Fatalf("%s: %d precomputed nonces before the refresh, want %d", step.name, got, step.held)
		}
		drawn, used, padding := paillier.Nonces(), laneCount(t, "nonce", "used"), laneCount(t, "nonce", "padding")
		fresh, err := su.RerandomizeRequest(req)
		if err != nil {
			t.Fatalf("%s refresh: %v", step.name, err)
		}
		if got := paillier.Nonces() - drawn; got != uint64(step.short) {
			t.Errorf("%s refresh drew %d nonces, want the shortfall %d", step.name, got, step.short)
		}
		if got := len(su.nonces); got != max(step.held-cells, 0) {
			t.Errorf("%s refresh left %d precomputed nonces, want %d", step.name, got, max(step.held-cells, 0))
		}
		if lanes {
			if got := laneCount(t, "nonce", "used") - used; got != uint64(step.short) {
				t.Errorf("%s refresh ran %d nonce lanes, want %d", step.name, got, step.short)
			}
			if got := laneCount(t, "nonce", "padding") - padding; got > 7 {
				t.Errorf("%s refresh of %d ciphertexts padded %d nonce lanes, want at most 7", step.name, cells, got)
			}
		}
		if g := d.decide(t, su, fresh); !g.Granted {
			t.Errorf("%s refreshed request denied", step.name)
		}
	}
}

// TestConcurrentPoolsUnderMixedLoad hammers one SDC, its kernels fanned
// out over GOMAXPROCS, mixing PU updates, fresh SU requests, and
// refreshes that take their SU's precomputed nonces and draw the rest.
// Run with -race: this is the path where the SUs' nonce slices, the
// worker pools, and the SDC state lock all interleave.
func TestConcurrentPoolsUnderMixedLoad(t *testing.T) {
	d := newDeployment(t)
	const (
		workers    = 3
		rounds     = 2
		precompute = 8
	)
	sus := make([]*SU, workers)
	for i := range sus {
		sus[i] = d.newSU(t, fmt.Sprintf("su-pool-%d", i), geo.BlockID(i))
		if err := sus[i].PrecomputeNonces(precompute); err != nil {
			t.Fatal(err)
		}
	}
	pu := d.newPU(t, "tv-pool", 8)

	var wg sync.WaitGroup
	errs := make(chan error, workers+1)

	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds*2; r++ {
			u, err := pu.Tune(r%d.params.Watch.Channels, 10_000)
			if err != nil {
				errs <- err
				return
			}
			if err := d.sdc.HandlePUUpdate(u); err != nil {
				errs <- err
				return
			}
		}
	}()

	for i := range sus {
		wg.Add(1)
		go func(su *SU) {
			defer wg.Done()
			req, err := su.PrepareRequest(map[int]int64{0: 1000}, geo.Disclosure{})
			if err != nil {
				errs <- err
				return
			}
			for r := 0; r < rounds; r++ {
				// The first refresh drains the precomputed nonces and
				// draws the rest; later ones draw them all.
				fresh, err := su.RerandomizeRequest(req)
				if err != nil {
					errs <- err
					return
				}
				resp, err := d.sdc.ProcessRequest(fresh)
				if err != nil {
					errs <- err
					return
				}
				if _, err := su.OpenResponse(resp, fresh, d.sdc.VerifyKey()); err != nil {
					errs <- err
					return
				}
			}
		}(sus[i])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("mixed-load worker: %v", err)
	}
	for i, su := range sus {
		if got := len(su.nonces); got != 0 {
			t.Errorf("su %d holds %d precomputed nonces after its refreshes, want 0", i, got)
		}
	}
}

// TestMultiChannelRequest exercises requests spanning several
// channels with distinct powers.
func TestMultiChannelRequest(t *testing.T) {
	d := newDeployment(t)
	su := d.newSU(t, "su-multi", 7)
	pu := d.newPU(t, "tv-multi", 8)
	d.tune(t, pu, 2, d.params.Watch.Quantize(d.params.Watch.SMinPUmW))

	// Channel 2 is constrained; asking for huge power there and tiny
	// power elsewhere must deny the whole request (the license is
	// all-or-nothing over the submitted parameters).
	eirp := map[int]int64{
		0: 1000,
		1: 1000,
		2: maxEIRP(d),
	}
	req, err := su.PrepareRequest(eirp, geo.Disclosure{})
	if err != nil {
		t.Fatal(err)
	}
	if g := d.decide(t, su, req); g.Granted {
		t.Fatal("request granted despite one infeasible channel")
	}
	if want := d.oracleDecision(t, 7, eirp); want {
		t.Fatal("oracle disagrees with the all-or-nothing denial")
	}
	// Dropping the infeasible channel flips the decision.
	delete(eirp, 2)
	req2, err := su.PrepareRequest(eirp, geo.Disclosure{})
	if err != nil {
		t.Fatal(err)
	}
	if g := d.decide(t, su, req2); !g.Granted {
		t.Fatal("feasible multi-channel request denied")
	}
}
