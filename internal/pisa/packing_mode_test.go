package pisa

import (
	"crypto/rand"
	"math/big"
	"testing"

	"pisa/internal/geo"
	"pisa/internal/matrix"
	"pisa/internal/paillier"
)

// oneSlot widens the blinding factor until a single slot fills the
// modulus: PackSlots() == 1 is the paper's one-cell-per-ciphertext
// layout, run by the same pipeline. The k = 1 rows of the parity tables
// are built with it.
func oneSlot(t testing.TB, p *Params) {
	t.Helper()
	p.AlphaBits = p.PaillierBits/2 - p.PlaintextBits
	if k := p.PackSlots(); k != 1 {
		t.Fatalf("AlphaBits %d packs %d slots per ciphertext, want 1", p.AlphaBits, k)
	}
}

// TestOneSlotEquivalenceWithPlaintextWATCH is the oracle cross-check
// for the paper's layout: at one cell per ciphertext the pipeline must
// still agree with plaintext WATCH decision for decision.
func TestOneSlotEquivalenceWithPlaintextWATCH(t *testing.T) {
	d := newCacheDeployment(t, func(p *Params) { oneSlot(t, p) })
	su := d.newSU(t, "su-k1", 7)
	pu := d.newPU(t, "tv-k1", 8)
	weak := d.params.Watch.Quantize(d.params.Watch.SMinPUmW)
	w := d.params.Watch

	check := func(eirp map[int]int64) {
		t.Helper()
		req, err := su.PrepareRequest(eirp, geo.Disclosure{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := req.Ciphertexts(), w.Channels*w.Grid.Blocks(); got != want {
			t.Fatalf("request ships %d ciphertexts, want one per cell = %d", got, want)
		}
		got := d.decide(t, su, req).Granted
		if want := d.oracleDecision(t, su.block, eirp); got != want {
			t.Fatalf("PISA=%v, WATCH oracle=%v (eirp=%v)", got, want, eirp)
		}
	}

	check(map[int]int64{0: maxEIRP(d)}) // empty band: grant
	d.tune(t, pu, 0, weak)              // nearby weak receiver: deny on 0
	check(map[int]int64{0: maxEIRP(d)})
	check(map[int]int64{1: 1}) // other channel stays clear
	d.off(t, pu)
	check(map[int]int64{0: maxEIRP(d)})
}

// TestRestoreSDCSlotCountParity drives the same PU history through a
// k = 4 and a k = 1 deployment sharing one group key, snapshots and
// restores both, and requires the restored budget matrices to decrypt
// identically — the slot count is a pure re-encoding of the WAL and
// snapshot, never a semantic change.
func TestRestoreSDCSlotCountParity(t *testing.T) {
	wp := testWatchParams(t)
	base := TestParams(wp)
	sk, err := paillier.GenerateKey(rand.Reader, base.PaillierBits)
	if err != nil {
		t.Fatalf("GenerateKey: %v", err)
	}
	sig := wp.Quantize(wp.SMinPUmW)
	restored := make(map[int]*SDC, 2)
	for _, k := range []int{4, 1} {
		params := base
		if k == 1 {
			oneSlot(t, &params)
		}
		if got := params.PackSlots(); got != k {
			t.Fatalf("parameters pack %d slots, want %d", got, k)
		}
		stp := NewSTPWithKey(rand.Reader, sk)
		sdc, err := NewSDC("sdc-parity", params, nil, stp)
		if err != nil {
			t.Fatalf("NewSDC(k=%d): %v", k, err)
		}
		d := &durableDeployment{deployment: &deployment{params: params, stp: stp, sdc: sdc}, sk: sk}
		d.update(t, d.newPU(t, "tv-1", 8), 1, sig)
		d.update(t, d.newPU(t, "tv-2", 3), 0, 4*sig)
		snap, err := sdc.ExportState()
		if err != nil {
			t.Fatalf("ExportState(k=%d): %v", k, err)
		}
		r, err := RestoreSDC("sdc-parity", params, nil, stp, snap, nil)
		if err != nil {
			t.Fatalf("RestoreSDC(k=%d): %v", k, err)
		}
		d.assertSameState(t, sdc, r)
		restored[k] = r
	}
	// Cross-layout: both restored controllers hold the same plaintext
	// budgets even though their ciphertext counts differ ~k-fold.
	d := &durableDeployment{deployment: &deployment{params: base}, sk: sk}
	if !d.budgets(t, restored[4]).Equal(d.budgets(t, restored[1])) {
		t.Fatal("k = 4 and k = 1 restores decrypt to different budgets")
	}
	ps := restored[4].PackedBudgetSnapshot().SizeBytes()
	us := restored[1].PackedBudgetSnapshot().SizeBytes()
	if ps >= us {
		t.Fatalf("k = 4 budget matrix %d B not smaller than k = 1's %d B", ps, us)
	}
}

// TestPackedRequestShrinksAtPaperScale pins the acceptance number: at
// the paper's parameters (2048-bit keys, 100 channels, 600 blocks) the
// TransmissionRequest is at least 10x smaller than at one cell per
// ciphertext. The matrix is filled with full-width dummy values — the
// size arithmetic, not the cryptography, is under test.
func TestPackedRequestShrinksAtPaperScale(t *testing.T) {
	params := Params{PaillierBits: 2048, PlaintextBits: 60, AlphaBits: 100}
	k := params.PackSlots()
	if k < 10 {
		t.Fatalf("paper-scale geometry packs %d slots per ciphertext, want >= 10", k)
	}
	pk := &paillier.PublicKey{N: new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 2048), big.NewInt(159))}
	full := &paillier.Ciphertext{C: new(big.Int).Sub(pk.NSquared(), big.NewInt(1))}
	const channels, blocks = 100, 600

	codec, err := paillier.NewSlotCodec(k, params.SlotBits(), params.SlotBits()-2)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := matrix.NewPacked(pk, codec, channels, blocks)
	if err != nil {
		t.Fatal(err)
	}
	groups := (blocks + k - 1) / k
	for c := 0; c < channels; c++ {
		for g := 0; g < groups; g++ {
			if err := packed.SetGroup(c, g, full); err != nil {
				t.Fatal(err)
			}
		}
	}
	req := &TransmissionRequest{SUID: "su", FP: packed}
	perCell := channels * blocks * pk.CiphertextBytes()
	small := req.Ciphertexts() * pk.CiphertextBytes()
	if small == 0 || small != req.SizeBytes() {
		t.Fatalf("request of %d ciphertexts reports %d B, want %d", req.Ciphertexts(), req.SizeBytes(), small)
	}
	if shrink := float64(perCell) / float64(small); shrink < 10 {
		t.Fatalf("packed request shrinks %.1fx (%d B vs %d B), want >= 10x", shrink, small, perCell)
	}
}
