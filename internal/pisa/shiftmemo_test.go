package pisa

import (
	"fmt"
	"testing"

	"pisa/internal/geo"
)

// TestShiftMemoReshiftsOnlyChangedUpdate drives two PUs that share one
// packed slot group through every way a stored update changes hands —
// first update, replacement, Off, a journal failure that rolls a
// replacement back, and RestoreSDC — and checks after each step that
// (a) every decision still equals the plaintext WATCH oracle's and
// (b) the rebuild exponentiated only for the update that was new to it:
// one shift per accepted update, none for the neighbour whose shifted
// columns are memoised, none for a rolled-back update, and one per
// stored update on a restored SDC, which starts without memos.
func TestShiftMemoReshiftsOnlyChangedUpdate(t *testing.T) {
	d := newDeployment(t)
	k := d.sdc.codec.Slots()
	if k < 3 {
		t.Fatalf("fixture packs %d slots per ciphertext, need 3", k)
	}
	// Blocks k+1 and k+2: one group, slots 1 and 2 (slot 0 needs no shift).
	blockA, blockB := geo.BlockID(k+1), geo.BlockID(k+2)
	puA := d.newPU(t, "tv-a", blockA)
	puB := d.newPU(t, "tv-b", blockB)
	sig := d.params.Watch.Quantize(d.params.Watch.SMinPUmW)

	sus := []*SU{d.newSU(t, "su-near", blockA), d.newSU(t, "su-far", geo.BlockID(d.params.Watch.Grid.Blocks()-1))}
	var grants, denials int
	parity := func(step string, sdc *SDC) {
		t.Helper()
		for _, su := range sus {
			for c := 0; c < d.params.Watch.Channels; c++ {
				eirp := map[int]int64{c: maxEIRP(d)}
				req, err := su.PrepareRequest(eirp, geo.Disclosure{})
				if err != nil {
					t.Fatal(err)
				}
				resp, err := sdc.ProcessRequest(req)
				if err != nil {
					t.Fatalf("%s: ProcessRequest: %v", step, err)
				}
				grant, err := su.OpenResponse(resp, req, sdc.VerifyKey())
				if err != nil {
					t.Fatalf("%s: OpenResponse: %v", step, err)
				}
				want := d.oracleDecision(t, su.Block(), eirp)
				if grant.Granted != want {
					t.Fatalf("%s: %s on channel %d granted=%v, oracle says %v", step, su.ID(), c, grant.Granted, want)
				}
				if want {
					grants++
				} else {
					denials++
				}
			}
		}
	}
	shifts := metrics().updateShift.Count
	step := func(name string, want uint64, sdc *SDC, fn func()) {
		t.Helper()
		before := shifts()
		fn()
		if got := shifts() - before; got != want {
			t.Fatalf("%s: %d updates shifted, want %d", name, got, want)
		}
		parity(name, sdc)
	}

	step("first update of A", 1, d.sdc, func() { d.tune(t, puA, 1, sig) })
	step("first update of B beside A", 1, d.sdc, func() { d.tune(t, puB, 2, sig) })
	step("A replaced", 1, d.sdc, func() { d.tune(t, puA, 0, 4*sig) })
	step("B off", 1, d.sdc, func() { d.off(t, puB) })

	step("A's replacement rolled back", 0, d.sdc, func() {
		d.sdc.SetUpdateJournal(func(*PUUpdate) error { return fmt.Errorf("disk full") })
		defer d.sdc.SetUpdateJournal(nil)
		u, err := puA.Tune(2, sig)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.sdc.HandlePUUpdate(u); err == nil {
			t.Fatal("update acknowledged despite journal failure")
		}
	})

	snap, err := d.sdc.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	var restored *SDC
	step("restore", 2, d.sdc, func() {
		if restored, err = RestoreSDC("sdc-test", d.params, nil, d.stp, snap, nil); err != nil {
			t.Fatal(err)
		}
	})
	defer restored.Close()
	parity("restored", restored)
	d.sdc = restored // d.tune now drives the restored controller
	step("B back on after restore", 1, restored, func() { d.tune(t, puB, 1, sig) })

	if grants == 0 || denials == 0 {
		t.Fatalf("fixture too weak: %d grants, %d denials", grants, denials)
	}
}
