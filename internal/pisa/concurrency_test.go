package pisa

import (
	"fmt"
	"sync"
	"testing"

	"pisa/internal/geo"
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

// TestNoncePoolAccounting checks the pooled-refresh bookkeeping, on the
// requests that draw from the pool: those without a shape digest.
func TestNoncePoolAccounting(t *testing.T) {
	d := newDeployment(t)
	su := d.newSU(t, "su-nonce", 7)
	req, err := su.PrepareRequest(map[int]int64{0: 100}, geo.Disclosure{})
	if err != nil {
		t.Fatal(err)
	}
	req = withoutDigest(req)
	cells := req.Ciphertexts()

	if err := su.PrecomputeNonces(-1); err == nil {
		t.Error("negative count accepted")
	}
	if err := su.PrecomputeNonces(cells + 3); err != nil {
		t.Fatal(err)
	}
	if got := su.PooledNonces(); got != cells+3 {
		t.Fatalf("pool = %d, want %d", got, cells+3)
	}
	if _, err := su.RefreshRequest(req); err != nil {
		t.Fatal(err)
	}
	if got := su.PooledNonces(); got != 3 {
		t.Fatalf("pool after refresh = %d, want 3", got)
	}
	// Pool exhaustion falls back to the slow path and still works.
	fresh, err := su.RefreshRequest(req)
	if err != nil {
		t.Fatalf("refresh with dry pool: %v", err)
	}
	if got := su.PooledNonces(); got != 0 {
		t.Fatalf("pool after dry refresh = %d, want 0", got)
	}
	if g := d.decide(t, su, fresh); !g.Granted {
		t.Error("dry-pool refreshed request denied")
	}
}

// TestConcurrentPoolsUnderMixedLoad hammers one SDC, its kernels fanned
// out over GOMAXPROCS, with the SUs' nonce pools armed for background
// auto-refill, mixing PU updates, fresh SU requests, and pooled
// refreshes. Run with -race: this is the path where nonce refill
// goroutines, the worker pools, and the SDC state lock all interleave.
func TestConcurrentPoolsUnderMixedLoad(t *testing.T) {
	d := newDeployment(t)
	const (
		workers    = 3
		rounds     = 2
		poolTarget = 8
	)
	// Armed pools on the SUs.
	sus := make([]*SU, workers)
	for i := range sus {
		sus[i] = d.newSU(t, fmt.Sprintf("su-pool-%d", i), geo.BlockID(i))
		if err := sus[i].EnableNonceAutoRefill(poolTarget); err != nil {
			t.Fatal(err)
		}
		if err := sus[i].PrecomputeNonces(poolTarget); err != nil {
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
			req = withoutDigest(req)
			for r := 0; r < rounds; r++ {
				// Refresh drains the nonce pool below its low-water
				// mark, racing the background refill it triggers.
				fresh, err := su.RefreshRequest(req)
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

	// After the storm settles, background refills must have restocked
	// the pools (the traffic drained them to empty every round, so a
	// non-empty pool proves a refill ran). The exact level is not
	// deterministic — a refill snapshots its need before concurrent
	// drains finish — so only restocking is asserted.
	for i, su := range sus {
		su.WaitNonceRefill()
		if got := su.PooledNonces(); got == 0 {
			t.Errorf("su %d nonce auto-refill never restocked the pool", i)
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
