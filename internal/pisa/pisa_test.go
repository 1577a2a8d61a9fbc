package pisa

import (
	"bytes"
	"crypto/rand"
	"encoding/gob"
	"math/big"
	mrand "math/rand"
	"strings"
	"testing"
	"time"

	"pisa/internal/geo"
	"pisa/internal/paillier"
	"pisa/internal/propagation"
	"pisa/internal/watch"
)

// propagationLog builds a log-distance model fixture.
func propagationLog(refLossDB, exponent float64) propagation.Model {
	return propagation.LogDistance{RefLossDB: refLossDB, Exponent: exponent}
}

// testWatchParams builds a tiny deployment: 5x4 grid of 10 m blocks,
// 3 channels. The tight worst-case model keeps d^c around 11 m so F
// matrices stay sparse in plaintext (they are still shipped dense).
func testWatchParams(t *testing.T) watch.Params {
	t.Helper()
	g, err := geo.NewGrid(5, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	return watch.Params{
		Channels:    3,
		Grid:        g,
		UnitsPerMW:  1e9,
		SUMaxEIRPmW: 4000,
		SMinPUmW:    1e-5,
		DeltaInt:    32,
		Secondary:   propagationLog(40, 3.5),
		WorstCase:   propagationLog(60, 4),
	}
}

// deployment bundles one in-process PISA universe plus the plaintext
// oracle it must agree with.
type deployment struct {
	params Params
	stp    *STP
	sdc    *SDC
	oracle *watch.System
}

func newDeployment(t *testing.T) *deployment {
	t.Helper()
	wp := testWatchParams(t)
	params := TestParams(wp)
	stp, err := NewSTP(rand.Reader, params.PaillierBits)
	if err != nil {
		t.Fatalf("NewSTP: %v", err)
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

// newSU creates and registers a secondary user holding the group key
// as the SDC holds it.
func (d *deployment) newSU(t *testing.T, id string, block geo.BlockID) *SU {
	t.Helper()
	su, err := NewSU(rand.Reader, id, block, d.params, d.sdc.Planner(), d.sdc.group)
	if err != nil {
		t.Fatalf("NewSU: %v", err)
	}
	if err := d.stp.RegisterSU(id, su.PublicKey()); err != nil {
		t.Fatalf("RegisterSU: %v", err)
	}
	return su
}

// newPU creates a primary user with the public E column for its block.
func (d *deployment) newPU(t *testing.T, id watch.PUID, block geo.BlockID) *PU {
	t.Helper()
	col, err := d.sdc.EColumn(block)
	if err != nil {
		t.Fatalf("EColumn: %v", err)
	}
	pu, err := NewPU(rand.Reader, id, block, col, d.sdc.group, d.params)
	if err != nil {
		t.Fatalf("NewPU: %v", err)
	}
	return pu
}

// tune sends a PU update through both PISA and the oracle.
func (d *deployment) tune(t *testing.T, pu *PU, channel int, signal int64) {
	t.Helper()
	u, err := pu.Tune(channel, signal)
	if err != nil {
		t.Fatalf("Tune: %v", err)
	}
	if err := d.sdc.HandlePUUpdate(u); err != nil {
		t.Fatalf("HandlePUUpdate: %v", err)
	}
	if err := d.oracle.UpdatePU(pu.ID(), watch.Registration{
		Block: pu.block, Channel: channel, SignalUnits: signal,
	}); err != nil {
		t.Fatalf("oracle UpdatePU: %v", err)
	}
}

// off switches a PU off in both worlds.
func (d *deployment) off(t *testing.T, pu *PU) {
	t.Helper()
	u, err := pu.Off()
	if err != nil {
		t.Fatalf("Off: %v", err)
	}
	if err := d.sdc.HandlePUUpdate(u); err != nil {
		t.Fatalf("HandlePUUpdate: %v", err)
	}
	if err := d.oracle.UpdatePU(pu.ID(), watch.Registration{Channel: -1}); err != nil {
		t.Fatalf("oracle UpdatePU: %v", err)
	}
}

// decide runs the full encrypted pipeline for one request and returns
// the SU-side grant.
func (d *deployment) decide(t *testing.T, su *SU, req *TransmissionRequest) Grant {
	t.Helper()
	resp, err := d.sdc.ProcessRequest(req)
	if err != nil {
		t.Fatalf("ProcessRequest: %v", err)
	}
	grant, err := su.OpenResponse(resp, req, d.sdc.VerifyKey())
	if err != nil {
		t.Fatalf("OpenResponse: %v", err)
	}
	return grant
}

// oracleDecision evaluates the same request in plaintext WATCH.
func (d *deployment) oracleDecision(t *testing.T, block geo.BlockID, eirp map[int]int64) bool {
	t.Helper()
	dec, err := d.oracle.Evaluate(watch.Request{Block: block, EIRPUnits: eirp})
	if err != nil {
		t.Fatalf("oracle Evaluate: %v", err)
	}
	return dec.Granted
}

func maxEIRP(d *deployment) int64 {
	return d.params.Watch.Quantize(d.params.Watch.SUMaxEIRPmW)
}

func TestEndToEndGrantWithoutPUs(t *testing.T) {
	d := newDeployment(t)
	su := d.newSU(t, "su-1", 7)
	eirp := map[int]int64{1: maxEIRP(d)}
	req, err := su.PrepareRequest(eirp, geo.Disclosure{})
	if err != nil {
		t.Fatalf("PrepareRequest: %v", err)
	}
	grant := d.decide(t, su, req)
	if !grant.Granted {
		t.Fatal("max-power SU denied with no active PUs")
	}
	if len(grant.Signature) == 0 {
		t.Fatal("granted but no signature recovered")
	}
	if grant.License.SUID != "su-1" || grant.License.Issuer != "sdc-test" {
		t.Errorf("license fields wrong: %+v", grant.License)
	}
	if got := d.oracleDecision(t, 7, eirp); !got {
		t.Fatal("oracle disagrees with grant")
	}
}

func TestEndToEndDenyNearActivePU(t *testing.T) {
	d := newDeployment(t)
	pu := d.newPU(t, "tv-1", 8)
	d.tune(t, pu, 1, d.params.Watch.Quantize(d.params.Watch.SMinPUmW))
	su := d.newSU(t, "su-1", 7) // adjacent block
	eirp := map[int]int64{1: maxEIRP(d)}
	req, err := su.PrepareRequest(eirp, geo.Disclosure{})
	if err != nil {
		t.Fatal(err)
	}
	grant := d.decide(t, su, req)
	if grant.Granted {
		t.Fatal("max-power SU next to a weak active PU was granted")
	}
	if grant.Signature != nil {
		t.Fatal("denied request recovered a signature")
	}
	if d.oracleDecision(t, 7, eirp) {
		t.Fatal("oracle disagrees with denial")
	}
}

func TestDecisionTracksPULifecycleEncrypted(t *testing.T) {
	d := newDeployment(t)
	pu := d.newPU(t, "tv-1", 8)
	su := d.newSU(t, "su-1", 7)
	eirp := map[int]int64{1: maxEIRP(d)}
	sig := d.params.Watch.Quantize(d.params.Watch.SMinPUmW)

	ask := func() bool {
		t.Helper()
		req, err := su.PrepareRequest(eirp, geo.Disclosure{})
		if err != nil {
			t.Fatal(err)
		}
		return d.decide(t, su, req).Granted
	}

	if !ask() {
		t.Fatal("denied before any PU active")
	}
	d.tune(t, pu, 1, sig)
	if ask() {
		t.Fatal("granted while PU active on channel 1")
	}
	// PU switches to channel 2; channel 1 frees up.
	d.tune(t, pu, 2, sig)
	if !ask() {
		t.Fatal("denied after PU switched to another channel")
	}
	d.off(t, pu)
	if !ask() {
		t.Fatal("denied after PU off")
	}
}

func TestEquivalenceWithPlaintextWATCH(t *testing.T) {
	// Property: over randomized scenarios, the encrypted pipeline's
	// decision equals the plaintext oracle's (DESIGN.md invariant 3).
	rng := mrand.New(mrand.NewSource(7))
	d := newDeployment(t)
	blocks := d.params.Watch.Grid.Blocks()
	channels := d.params.Watch.Channels

	// Random PU population: 3 receivers at random cells with signal
	// strengths spanning weak to strong.
	pus := make([]*PU, 3)
	for i := range pus {
		pus[i] = d.newPU(t, watch.PUID(string(rune('a'+i))), geo.BlockID(rng.Intn(blocks)))
	}
	su := d.newSU(t, "su-eq", 0)

	for round := 0; round < 6; round++ {
		for _, pu := range pus {
			if rng.Intn(4) == 0 {
				d.off(t, pu)
				continue
			}
			signal := d.params.Watch.Quantize(d.params.Watch.SMinPUmW * float64(1+rng.Intn(1000)))
			ch := rng.Intn(channels)
			u, err := pu.Tune(ch, signal)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.oracle.UpdatePU(pu.ID(), watch.Registration{
				Block: pu.block, Channel: ch, SignalUnits: signal,
			}); err != nil {
				// Conflicting cell: skip this move entirely.
				continue
			}
			if err := d.sdc.HandlePUUpdate(u); err != nil {
				t.Fatal(err)
			}
		}
		// Random SU demand on a random channel subset.
		eirp := make(map[int]int64)
		for c := 0; c < channels; c++ {
			if rng.Intn(2) == 0 {
				eirp[c] = 1 + rng.Int63n(maxEIRP(d))
			}
		}
		if len(eirp) == 0 {
			eirp[0] = maxEIRP(d)
		}
		req, err := su.PrepareRequest(eirp, geo.Disclosure{})
		if err != nil {
			t.Fatal(err)
		}
		got := d.decide(t, su, req).Granted
		want := d.oracleDecision(t, su.block, eirp)
		if got != want {
			t.Fatalf("round %d: PISA=%v, WATCH oracle=%v (eirp=%v)", round, got, want, eirp)
		}
	}
}

func TestPartialDisclosureShrinksRequestAndAgrees(t *testing.T) {
	d := newDeployment(t)
	grid := d.params.Watch.Grid
	su := d.newSU(t, "su-1", 2) // row 0: footprint stays inside rows 0-1
	eirp := map[int]int64{0: maxEIRP(d)}

	full, err := su.PrepareRequest(eirp, geo.Disclosure{})
	if err != nil {
		t.Fatal(err)
	}
	band, err := grid.RowBand(0, 2) // southern half, contains block 2
	if err != nil {
		t.Fatal(err)
	}
	partial, err := su.PrepareRequest(eirp, band)
	if err != nil {
		t.Fatalf("partial disclosure request: %v", err)
	}
	if partial.SizeBytes() >= full.SizeBytes() {
		t.Errorf("partial request %d B not smaller than full %d B", partial.SizeBytes(), full.SizeBytes())
	}
	want := d.params.Watch.Channels * len(band.Blocks)
	if partial.FP != nil {
		// Packed disclosure rounds up to whole slot groups.
		k := partial.FP.Slots()
		groups := make(map[int]bool)
		for _, b := range band.Blocks {
			groups[int(b)/k] = true
		}
		want = d.params.Watch.Channels * len(groups)
	}
	if got := partial.Ciphertexts(); got != want {
		t.Errorf("partial request populated %d cells, want %d", got, want)
	}
	gFull := d.decide(t, su, full)
	gPartial := d.decide(t, su, partial)
	if gFull.Granted != gPartial.Granted {
		t.Errorf("full=%v partial=%v decisions disagree", gFull.Granted, gPartial.Granted)
	}
}

func TestDisclosureMustContainSUBlock(t *testing.T) {
	d := newDeployment(t)
	su := d.newSU(t, "su-1", 7) // row 1
	band, err := d.params.Watch.Grid.RowBand(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := su.PrepareRequest(map[int]int64{0: 1000}, band); err == nil {
		t.Fatal("disclosure excluding the SU's own block accepted")
	}
}

func TestDisclosureMustCoverInterferenceFootprint(t *testing.T) {
	d := newDeployment(t)
	// Block 9 is the end of row 1; its footprint includes block 14
	// in row 2. A row-band of rows 0-1 excludes it.
	su := d.newSU(t, "su-1", 9)
	band, err := d.params.Watch.Grid.RowBand(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := su.PrepareRequest(map[int]int64{0: maxEIRP(d)}, band); err == nil {
		t.Fatal("disclosure dropping non-zero F entries accepted")
	}
}

// TestRequestViewIndependentOfShape pins what a request tells the SDC:
// its bytes, SUID and disclosure, and nothing about where the SU is or
// what it asks for. Two SUs under one SUID and one disclosure, at
// different blocks and asking for different channels and EIRP, send
// requests that populate the same coordinates and, ciphertexts aside,
// encode to the same bytes.
func TestRequestViewIndependentOfShape(t *testing.T) {
	d := newDeployment(t)
	view := func(block geo.BlockID, eirp map[int]int64) ([]byte, [][2]int) {
		t.Helper()
		su, err := NewSU(rand.Reader, "su-same", block, d.params, d.sdc.Planner(), d.sdc.group)
		if err != nil {
			t.Fatal(err)
		}
		req, err := su.PrepareRequest(eirp, geo.Disclosure{})
		if err != nil {
			t.Fatal(err)
		}
		var coords [][2]int
		err = req.FP.ForEachGroup(func(c, g int, _ *paillier.Ciphertext) error {
			coords = append(coords, [2]int{c, g})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		bare := *req
		bare.FP = nil
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&bare); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), coords
	}
	a, coordsA := view(3, map[int]int64{0: maxEIRP(d)})
	b, coordsB := view(16, map[int]int64{2: 1})
	if !bytes.Equal(a, b) {
		t.Fatalf("requests of two shapes encode differently outside their ciphertexts:\n%x\n%x", a, b)
	}
	if len(coordsA) != len(coordsB) {
		t.Fatalf("requests of two shapes ship %d and %d ciphertexts", len(coordsA), len(coordsB))
	}
	for i := range coordsA {
		if coordsA[i] != coordsB[i] {
			t.Fatalf("ciphertext %d sits at %v in one request, %v in the other", i, coordsA[i], coordsB[i])
		}
	}
}

// TestRefreshRequestUnlinkableSameDecision pins the paper's refresh,
// SU.RerandomizeRequest: every ciphertext is re-randomised, the decision
// stays.
func TestRefreshRequestUnlinkableSameDecision(t *testing.T) {
	d := newDeployment(t)
	su := d.newSU(t, "su-1", 7)
	req, err := su.PrepareRequest(map[int]int64{1: maxEIRP(d)}, geo.Disclosure{})
	if err != nil {
		t.Fatal(err)
	}
	drawn := paillier.Nonces()
	fresh, err := su.RerandomizeRequest(req)
	if err != nil {
		t.Fatalf("RerandomizeRequest: %v", err)
	}
	if got := paillier.Nonces() - drawn; got != uint64(req.Ciphertexts()) {
		t.Errorf("refresh drew %d nonces for %d ciphertexts", got, req.Ciphertexts())
	}
	// Ciphertexts must all change...
	same := 0
	err = req.FP.ForEachGroup(func(c, g int, ct *paillier.Ciphertext) error {
		other, err := fresh.FP.GroupAt(c, g)
		if err != nil {
			return err
		}
		if ct.Equal(other) {
			same++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if same != 0 {
		t.Errorf("%d ciphertexts survived refresh", same)
	}
	// ...and the decision must not.
	if g := d.decide(t, su, fresh); !g.Granted {
		t.Error("refreshed request denied where original would be granted")
	}
}

// TestRefreshWithDigestDrawsNothing pins SU.RefreshRequest: it re-sends
// the prepared ciphertexts — no nonce drawn, the precomputed ones
// untouched — and the license still verifies and binds to them.
func TestRefreshWithDigestDrawsNothing(t *testing.T) {
	d := newDeployment(t)
	su := d.newSU(t, "su-1", 7)
	req, err := su.PrepareRequest(map[int]int64{1: maxEIRP(d)}, geo.Disclosure{})
	if err != nil {
		t.Fatal(err)
	}
	if err := su.PrecomputeNonces(req.Ciphertexts()); err != nil {
		t.Fatal(err)
	}
	pooled, drawn := len(su.nonces), paillier.Nonces()
	again, err := su.RefreshRequest(req)
	if err != nil {
		t.Fatalf("RefreshRequest: %v", err)
	}
	if got := paillier.Nonces() - drawn; got != 0 {
		t.Errorf("refresh drew %d nonces", got)
	}
	if got := len(su.nonces); got != pooled {
		t.Errorf("refresh took the precomputed nonces from %d to %d", pooled, got)
	}
	if again == req || again.SUID != req.SUID {
		t.Fatal("refresh is not a copy of the request")
	}
	err = req.FP.ForEachGroup(func(c, g int, ct *paillier.Ciphertext) error {
		other, err := again.FP.GroupAt(c, g)
		if err != nil {
			return err
		}
		if !ct.Equal(other) {
			t.Errorf("ciphertext (%d, %d) changed in the refresh", c, g)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := req.Digest()
	if err != nil {
		t.Fatal(err)
	}
	for serving, r := range []*TransmissionRequest{req, again} {
		resp, err := d.sdc.ProcessRequest(r)
		if err != nil {
			t.Fatal(err)
		}
		if resp.License.RequestDigest != want {
			t.Errorf("serving %d: license binds to another request digest", serving)
		}
		grant, err := su.OpenResponse(resp, r, d.sdc.VerifyKey())
		if err != nil {
			t.Fatal(err)
		}
		if !grant.Granted {
			t.Errorf("serving %d denied on an empty band", serving)
		}
	}
}

func TestTamperedResponseDoesNotVerify(t *testing.T) {
	d := newDeployment(t)
	su := d.newSU(t, "su-1", 7)
	req, err := su.PrepareRequest(map[int]int64{1: 1000}, geo.Disclosure{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := d.sdc.ProcessRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	// Homomorphically shift the masked signature: the forged value
	// must not verify.
	shift, err := su.PublicKey().EncryptInt(rand.Reader, 1)
	if err != nil {
		t.Fatal(err)
	}
	forged, err := su.PublicKey().Add(resp.MaskedSig, shift)
	if err != nil {
		t.Fatal(err)
	}
	resp.MaskedSig = forged
	grant, err := su.OpenResponse(resp, req, d.sdc.VerifyKey())
	if err != nil {
		t.Fatalf("OpenResponse: %v", err)
	}
	if grant.Granted {
		t.Fatal("tampered masked signature verified")
	}
}

func TestLicenseBindsToRequest(t *testing.T) {
	d := newDeployment(t)
	su := d.newSU(t, "su-1", 7)
	reqA, err := su.PrepareRequest(map[int]int64{1: 1000}, geo.Disclosure{})
	if err != nil {
		t.Fatal(err)
	}
	reqB, err := su.PrepareRequest(map[int]int64{1: 2000}, geo.Disclosure{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := d.sdc.ProcessRequest(reqA)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := su.OpenResponse(resp, reqB, d.sdc.VerifyKey()); err == nil {
		t.Fatal("license for request A accepted against request B")
	}
}

func TestResponseForWrongSURejected(t *testing.T) {
	d := newDeployment(t)
	su1 := d.newSU(t, "su-1", 7)
	su2 := d.newSU(t, "su-2", 12)
	req, err := su1.PrepareRequest(map[int]int64{1: 1000}, geo.Disclosure{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := d.sdc.ProcessRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := su2.OpenResponse(resp, nil, d.sdc.VerifyKey()); err == nil {
		t.Fatal("SU-2 accepted a license issued to SU-1")
	}
}

func TestSerialIncrementsAcrossLicenses(t *testing.T) {
	d := newDeployment(t)
	su := d.newSU(t, "su-1", 7)
	var serials []uint64
	for i := 0; i < 3; i++ {
		req, err := su.PrepareRequest(map[int]int64{0: 100}, geo.Disclosure{})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := d.sdc.ProcessRequest(req)
		if err != nil {
			t.Fatal(err)
		}
		serials = append(serials, resp.License.Serial)
	}
	if !(serials[0] < serials[1] && serials[1] < serials[2]) {
		t.Errorf("serials not strictly increasing: %v", serials)
	}
}

func TestProcessRequestValidation(t *testing.T) {
	d := newDeployment(t)
	su := d.newSU(t, "su-1", 7)
	good, err := su.PrepareRequest(map[int]int64{0: 100}, geo.Disclosure{})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := d.sdc.ProcessRequest(nil); err == nil {
		t.Error("nil request accepted")
	}
	anon := *good
	anon.SUID = ""
	if _, err := d.sdc.ProcessRequest(&anon); err == nil {
		t.Error("anonymous request accepted")
	}
	unknown := *good
	unknown.SUID = "nobody"
	if _, err := d.sdc.ProcessRequest(&unknown); err == nil {
		t.Error("unregistered SU accepted")
	}
	// Request encrypted under the SU's own key instead of the group
	// key must be rejected.
	wrongKey, err := NewSU(rand.Reader, "su-1", 7, d.params, d.sdc.Planner(), su.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	badReq, err := wrongKey.PrepareRequest(map[int]int64{0: 100}, geo.Disclosure{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.sdc.ProcessRequest(badReq); err == nil {
		t.Error("request under non-group key accepted")
	}
}

func TestHandlePUUpdateValidation(t *testing.T) {
	d := newDeployment(t)
	pu := d.newPU(t, "tv-1", 8)
	u, err := pu.Tune(1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.sdc.HandlePUUpdate(nil); err == nil {
		t.Error("nil update accepted")
	}
	anon := *u
	anon.PUID = ""
	if err := d.sdc.HandlePUUpdate(&anon); err == nil {
		t.Error("anonymous update accepted")
	}
	short := *u
	short.Cts = short.Cts[:1]
	if err := d.sdc.HandlePUUpdate(&short); err == nil {
		t.Error("short update accepted")
	}
	badBlock := *u
	badBlock.Block = 999
	if err := d.sdc.HandlePUUpdate(&badBlock); err == nil {
		t.Error("invalid block accepted")
	}
	// Register properly, then attempt to move the receiver.
	if err := d.sdc.HandlePUUpdate(u); err != nil {
		t.Fatalf("valid update rejected: %v", err)
	}
	colB, err := d.sdc.EColumn(9)
	if err != nil {
		t.Fatal(err)
	}
	moved, err := NewPU(rand.Reader, "tv-1", 9, colB, d.stp.GroupKey(), d.params)
	if err != nil {
		t.Fatal(err)
	}
	mu, err := moved.Tune(1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.sdc.HandlePUUpdate(mu); err == nil {
		t.Error("PU moved blocks without rejection")
	}
}

func TestPUValidation(t *testing.T) {
	d := newDeployment(t)
	pu := d.newPU(t, "tv-1", 8)
	if _, err := pu.Tune(-1, 100); err == nil {
		t.Error("negative channel accepted")
	}
	if _, err := pu.Tune(99, 100); err == nil {
		t.Error("out-of-range channel accepted")
	}
	if _, err := pu.Tune(0, 0); err == nil {
		t.Error("zero signal accepted")
	}
	if _, err := NewPU(rand.Reader, "", 0, []int64{1}, d.stp.GroupKey(), d.params); err == nil {
		t.Error("empty PU id accepted")
	}
	if _, err := NewPU(rand.Reader, "x", 0, nil, d.stp.GroupKey(), d.params); err == nil {
		t.Error("missing E column accepted")
	}
	if _, err := NewPU(rand.Reader, "x", 0, []int64{1}, nil, d.params); err == nil {
		t.Error("missing group key accepted")
	}
	if _, err := NewPU(rand.Reader, "x", -1, []int64{1}, d.stp.GroupKey(), d.params); err == nil {
		t.Error("negative block accepted")
	}
}

func TestSTPRegistry(t *testing.T) {
	d := newDeployment(t)
	su := d.newSU(t, "su-1", 7)
	// Idempotent re-registration.
	if err := d.stp.RegisterSU("su-1", su.PublicKey()); err != nil {
		t.Errorf("idempotent re-registration rejected: %v", err)
	}
	// Key substitution rejected.
	other, err := paillier.GenerateKey(rand.Reader, 256)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.stp.RegisterSU("su-1", other.Public()); err == nil {
		t.Error("key substitution accepted")
	}
	if err := d.stp.RegisterSU("", su.PublicKey()); err == nil {
		t.Error("empty id accepted")
	}
	if err := d.stp.RegisterSU("su-9", nil); err == nil {
		t.Error("nil key accepted")
	}
	if _, err := d.stp.SUKey("ghost"); err == nil {
		t.Error("unknown SU key lookup succeeded")
	}
}

func TestSTPSeesSignHiddenValues(t *testing.T) {
	// Leakage analysis of §V: the values the STP decrypts must carry
	// no usable sign information. Here every true I is positive (no
	// PUs, quiet SU), yet the observed V signs must be a roughly
	// even mix thanks to the one-time epsilon flips.
	d := newDeployment(t)
	var negatives, total int
	d.stp.observer = func(_ string, values []*big.Int) {
		for _, v := range values {
			total++
			if v.Sign() < 0 {
				negatives++
			}
		}
	}
	su := d.newSU(t, "su-1", 7)
	// Pool the signs across several independently-blinded requests:
	// one request yields only ~15 coin flips, and a fair coin lands
	// outside [0.2, 0.8] about once in 135 runs.
	for i := 0; i < 4; i++ {
		req, err := su.PrepareRequest(map[int]int64{0: 100}, geo.Disclosure{})
		if err != nil {
			t.Fatal(err)
		}
		if g := d.decide(t, su, req); !g.Granted {
			t.Fatal("premise broken: quiet SU denied")
		}
	}
	if total == 0 {
		t.Fatal("observer saw no values")
	}
	frac := float64(negatives) / float64(total)
	if frac < 0.2 || frac > 0.8 {
		t.Errorf("STP saw %d/%d negative V values (%.2f); epsilon blinding looks broken",
			negatives, total, frac)
	}
}

func TestParamsValidation(t *testing.T) {
	wp := testWatchParams(t)
	good := TestParams(wp)
	if err := good.Validate(); err != nil {
		t.Fatalf("good params rejected: %v", err)
	}
	if err := DefaultParams(wp).Validate(); err != nil {
		t.Fatalf("default params rejected: %v", err)
	}
	mutations := []struct {
		name string
		mut  func(*Params)
	}{
		{"paillier too small", func(p *Params) { p.PaillierBits = 64 }},
		{"plaintext too small", func(p *Params) { p.PlaintextBits = 4 }},
		{"alpha too small", func(p *Params) { p.AlphaBits = 1 }},
		{"beta >= alpha", func(p *Params) { p.BetaBits = p.AlphaBits }},
		{"beta zero", func(p *Params) { p.BetaBits = 0 }},
		{"eta zero", func(p *Params) { p.EtaBits = 0 }},
		{"signer too small", func(p *Params) { p.SignerBits = 128 }},
		{"signer too large", func(p *Params) { p.SignerBits = p.PaillierBits }},
		{"alpha wraps", func(p *Params) { p.AlphaBits = p.PaillierBits }},
		{"plaintext too narrow for radio", func(p *Params) { p.PlaintextBits = 20 }},
	}
	for _, tt := range mutations {
		t.Run(tt.name, func(t *testing.T) {
			p := TestParams(wp)
			tt.mut(&p)
			if err := p.Validate(); err == nil {
				t.Error("invalid params accepted")
			}
		})
	}
}

func TestLicenseValidityWindow(t *testing.T) {
	wp := testWatchParams(t)
	params := TestParams(wp)
	stp, err := NewSTP(rand.Reader, params.PaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	fixed := time.Date(2026, 7, 5, 12, 0, 0, 0, time.UTC)
	sdc, err := NewSDC("sdc", params, nil, stp,
		WithClock(func() time.Time { return fixed }))
	if err != nil {
		t.Fatal(err)
	}
	su, err := NewSU(rand.Reader, "su-1", 7, params, sdc.Planner(), stp.GroupKey())
	if err != nil {
		t.Fatal(err)
	}
	if err := stp.RegisterSU("su-1", su.PublicKey()); err != nil {
		t.Fatal(err)
	}
	req, err := su.PrepareRequest(map[int]int64{0: 100}, geo.Disclosure{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := sdc.ProcessRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.License.IssuedUnix != fixed.Unix() {
		t.Errorf("IssuedUnix = %d, want %d", resp.License.IssuedUnix, fixed.Unix())
	}
	if resp.License.ExpiresUnix != fixed.Add(24*time.Hour).Unix() {
		t.Errorf("ExpiresUnix = %d, want %d", resp.License.ExpiresUnix, fixed.Add(24*time.Hour).Unix())
	}
}

// TestSURefusesExpiredLicense: a license whose validity window the SU's
// clock has left is refused by name, though its signature verifies.
func TestSURefusesExpiredLicense(t *testing.T) {
	wp := testWatchParams(t)
	params := TestParams(wp)
	stp, err := NewSTP(rand.Reader, params.PaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	past := time.Now().Add(-25 * time.Hour)
	sdc, err := NewSDC("sdc", params, nil, stp, WithClock(func() time.Time { return past }))
	if err != nil {
		t.Fatal(err)
	}
	defer sdc.Close()
	su, err := NewSU(rand.Reader, "su-late", 7, params, sdc.Planner(), stp.GroupKey())
	if err != nil {
		t.Fatal(err)
	}
	if err := stp.RegisterSU(su.ID(), su.PublicKey()); err != nil {
		t.Fatal(err)
	}
	req, err := su.PrepareRequest(map[int]int64{0: 100}, geo.Disclosure{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := sdc.ProcessRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	grant, err := su.OpenResponse(resp, req, sdc.VerifyKey())
	if err == nil || !strings.Contains(err.Error(), "expired at") {
		t.Fatalf("license that expired an hour ago: granted %v, err %v; want an expiry error", grant.Granted, err)
	}
}

func TestResponsesIndistinguishableToSDC(t *testing.T) {
	// The SDC must not be able to tell grant from denial from
	// anything it produces (§IV-A "Decision on transmission
	// request"). Structural check: both outcomes yield the same
	// response shape — one license body plus one ciphertext of the
	// SU-key size — and the masked values stay in the valid
	// ciphertext range.
	d := newDeployment(t)
	pu := d.newPU(t, "tv-ind", 8)
	su := d.newSU(t, "su-ind", 7)
	eirp := map[int]int64{1: maxEIRP(d)}

	reqFree, err := su.PrepareRequest(eirp, geo.Disclosure{})
	if err != nil {
		t.Fatal(err)
	}
	respGrant, err := d.sdc.ProcessRequest(reqFree)
	if err != nil {
		t.Fatal(err)
	}
	d.tune(t, pu, 1, d.params.Watch.Quantize(d.params.Watch.SMinPUmW))
	reqBusy, err := su.PrepareRequest(eirp, geo.Disclosure{})
	if err != nil {
		t.Fatal(err)
	}
	respDeny, err := d.sdc.ProcessRequest(reqBusy)
	if err != nil {
		t.Fatal(err)
	}
	// Same SU key modulus bounds both ciphertexts.
	bound := new(big.Int).Mul(su.PublicKey().N, su.PublicKey().N)
	for name, resp := range map[string]*Response{"grant": respGrant, "deny": respDeny} {
		if resp.MaskedSig == nil || resp.MaskedSig.C == nil {
			t.Fatalf("%s response missing masked signature", name)
		}
		if resp.MaskedSig.C.Sign() <= 0 || resp.MaskedSig.C.Cmp(bound) >= 0 {
			t.Fatalf("%s masked signature outside Z_{n^2}", name)
		}
		if resp.License.SUID != su.ID() {
			t.Fatalf("%s license for wrong SU", name)
		}
	}
	// And the SU's verdicts differ, confirming the two cases really
	// were a grant and a denial.
	g1, err := su.OpenResponse(respGrant, reqFree, d.sdc.VerifyKey())
	if err != nil {
		t.Fatal(err)
	}
	g2, err := su.OpenResponse(respDeny, reqBusy, d.sdc.VerifyKey())
	if err != nil {
		t.Fatal(err)
	}
	if !g1.Granted || g2.Granted {
		t.Fatalf("premise broken: grant=%v deny=%v", g1.Granted, g2.Granted)
	}
}
