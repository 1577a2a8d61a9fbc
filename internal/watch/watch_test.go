package watch

import (
	"math"
	mrand "math/rand"
	"testing"

	"pisa/internal/geo"
	"pisa/internal/propagation"
)

// testParams returns a small deployment: 10x6 grid of 10 m blocks,
// 5 channels, nanowatt fixed point.
func testParams(t *testing.T) Params {
	t.Helper()
	g, err := geo.NewGrid(10, 6, 10)
	if err != nil {
		t.Fatal(err)
	}
	return Params{
		Channels:    5,
		Grid:        g,
		UnitsPerMW:  1e9,
		SUMaxEIRPmW: 4000,
		SMinPUmW:    1e-5,
		DeltaInt:    32,
		Secondary:   propagation.LogDistance{RefLossDB: 40, Exponent: 3.5},
		WorstCase:   propagation.LogDistance{RefLossDB: 38, Exponent: 2.8},
	}
}

func newTestSystem(t *testing.T, txs []TVTransmitter) *System {
	t.Helper()
	s, err := NewSystem(testParams(t), txs)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	return s
}

func TestParamsValidate(t *testing.T) {
	base := testParams(t)
	mutations := []struct {
		name string
		mut  func(*Params)
	}{
		{"channels", func(p *Params) { p.Channels = 0 }},
		{"grid", func(p *Params) { p.Grid = nil }},
		{"units", func(p *Params) { p.UnitsPerMW = 0 }},
		{"sumax", func(p *Params) { p.SUMaxEIRPmW = -1 }},
		{"smin", func(p *Params) { p.SMinPUmW = 0 }},
		{"delta", func(p *Params) { p.DeltaInt = 0 }},
		{"secondary", func(p *Params) { p.Secondary = nil }},
		{"worst", func(p *Params) { p.WorstCase = nil }},
	}
	for _, tt := range mutations {
		t.Run(tt.name, func(t *testing.T) {
			p := base
			tt.mut(&p)
			if err := p.Validate(); err == nil {
				t.Error("invalid params accepted")
			}
			if _, err := NewSystem(p, nil); err == nil {
				t.Error("NewSystem accepted invalid params")
			}
		})
	}
	if err := base.Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
}

func TestDeltaFromDB(t *testing.T) {
	// 15 dB = 31.62, 3 dB = 2.0 -> ceil(33.62) = 34.
	if got := DeltaFromDB(15, 3); got != 34 {
		t.Errorf("DeltaFromDB(15, 3) = %d, want 34", got)
	}
	if got := DeltaFromDB(0, 0); got != 2 {
		t.Errorf("DeltaFromDB(0, 0) = %d, want 2", got)
	}
}

func TestQuantizeRoundTrip(t *testing.T) {
	p := testParams(t)
	for _, mw := range []float64{0, 1e-5, 1, 4000} {
		units := p.Quantize(mw)
		back := p.Dequantize(units)
		if math.Abs(back-mw) > 1/p.UnitsPerMW {
			t.Errorf("quantize round trip: %g -> %d -> %g", mw, units, back)
		}
	}
}

func TestInitialBudgetsEqualEAndPositive(t *testing.T) {
	s := newTestSystem(t, nil)
	if !s.BudgetMatrix().Equal(s.EMatrix()) {
		t.Error("initial N != E")
	}
	if !s.BudgetMatrix().AllPositive() {
		t.Error("initial budgets not all positive")
	}
}

func TestProtectionDistanceAccessor(t *testing.T) {
	s := newTestSystem(t, nil)
	d, err := s.planner.ProtectionDistance(0)
	if err != nil {
		t.Fatalf("ProtectionDistance(0): %v", err)
	}
	// Target gain 1e-5/(4000*32) -> about 101 dB of loss -> about
	// 178 m under the worst-case model.
	if d < 100 || d > 300 {
		t.Errorf("d^c = %g m, want roughly 178", d)
	}
	for _, c := range []int{-1, 5} {
		if _, err := s.planner.ProtectionDistance(c); err == nil {
			t.Errorf("channel %d accepted", c)
		}
	}
}

func TestSignalAtDecaysWithDistance(t *testing.T) {
	tx := TVTransmitter{Location: geo.Point{X: 5, Y: 5}, Channel: 2, EIRPmW: 1e6}
	s := newTestSystem(t, []TVTransmitter{tx})
	near, err := s.SignalAt(2, 0) // block 0 centre (5, 5): on top of tower
	if err != nil {
		t.Fatal(err)
	}
	far, err := s.SignalAt(2, 59) // opposite corner
	if err != nil {
		t.Fatal(err)
	}
	if near <= far || far < 0 {
		t.Errorf("signal near=%d far=%d, want near > far >= 0", near, far)
	}
	other, err := s.SignalAt(3, 0) // no transmitter on channel 3
	if err != nil {
		t.Fatal(err)
	}
	if other != 0 {
		t.Errorf("signal on empty channel = %d, want 0", other)
	}
}

func TestUpdatePULifecycle(t *testing.T) {
	s := newTestSystem(t, nil)
	e := s.EMatrix()
	sig := int64(10_000)

	if err := s.UpdatePU("tv1", Registration{Block: 12, Channel: 1, SignalUnits: sig}); err != nil {
		t.Fatalf("register: %v", err)
	}
	if s.ActivePUs() != 1 {
		t.Fatalf("ActivePUs = %d, want 1", s.ActivePUs())
	}
	n := s.BudgetMatrix()
	if v, _ := n.At(1, 12); v != sig {
		t.Errorf("N(1, 12) = %d, want %d", v, sig)
	}

	// Switch to channel 3: old slot reverts to E, new slot constrained.
	if err := s.UpdatePU("tv1", Registration{Block: 12, Channel: 3, SignalUnits: sig}); err != nil {
		t.Fatalf("switch: %v", err)
	}
	n = s.BudgetMatrix()
	if v, _ := n.At(1, 12); v != mustAt(t, e, 1, 12) {
		t.Errorf("N(1, 12) = %d after switch, want E value %d", v, mustAt(t, e, 1, 12))
	}
	if v, _ := n.At(3, 12); v != sig {
		t.Errorf("N(3, 12) = %d, want %d", v, sig)
	}

	// Turn off: everything reverts to E.
	if err := s.UpdatePU("tv1", Registration{Channel: -1}); err != nil {
		t.Fatalf("off: %v", err)
	}
	if s.ActivePUs() != 0 {
		t.Fatalf("ActivePUs = %d after off, want 0", s.ActivePUs())
	}
	if !s.BudgetMatrix().Equal(e) {
		t.Error("budgets did not revert to E after all PUs off")
	}
}

func mustAt(t *testing.T, m interface {
	At(c, b int) (int64, error)
}, c, b int) int64 {
	t.Helper()
	v, err := m.At(c, b)
	if err != nil {
		t.Fatalf("At(%d, %d): %v", c, b, err)
	}
	return v
}

func TestPUsShareBlockOnDistinctChannels(t *testing.T) {
	s := newTestSystem(t, nil)
	if err := s.UpdatePU("a", Registration{Block: 7, Channel: 2, SignalUnits: 300}); err != nil {
		t.Fatal(err)
	}
	if err := s.UpdatePU("b", Registration{Block: 7, Channel: 3, SignalUnits: 500}); err != nil {
		t.Fatalf("distinct channels in one block rejected: %v", err)
	}
	if v := mustAt(t, s.BudgetMatrix(), 2, 7); v != 300 {
		t.Errorf("N(2, 7) = %d, want 300", v)
	}
	if v := mustAt(t, s.BudgetMatrix(), 3, 7); v != 500 {
		t.Errorf("N(3, 7) = %d, want 500", v)
	}
}

func TestConflictingPUsRejected(t *testing.T) {
	s := newTestSystem(t, nil)
	if err := s.UpdatePU("a", Registration{Block: 7, Channel: 2, SignalUnits: 300}); err != nil {
		t.Fatal(err)
	}
	if err := s.UpdatePU("b", Registration{Block: 7, Channel: 2, SignalUnits: 500}); err == nil {
		t.Fatal("second PU on the same (channel, block) cell accepted")
	}
	// Re-registering the same PU on its own cell is fine.
	if err := s.UpdatePU("a", Registration{Block: 7, Channel: 2, SignalUnits: 400}); err != nil {
		t.Fatalf("self re-registration rejected: %v", err)
	}
	if v := mustAt(t, s.BudgetMatrix(), 2, 7); v != 400 {
		t.Errorf("N(2, 7) = %d, want 400", v)
	}
}

func TestUpdatePUValidation(t *testing.T) {
	s := newTestSystem(t, nil)
	bad := []Registration{
		{Block: 0, Channel: 99, SignalUnits: 1},
		{Block: 999, Channel: 1, SignalUnits: 1},
		{Block: 0, Channel: 1, SignalUnits: 0},
		{Block: 0, Channel: 1, SignalUnits: -5},
	}
	for i, reg := range bad {
		if err := s.UpdatePU("x", reg); err == nil {
			t.Errorf("registration %d accepted: %+v", i, reg)
		}
	}
}

func TestComputeFShapeAndValues(t *testing.T) {
	s := newTestSystem(t, nil)
	eirp := int64(1_000_000) // 1 mW in units
	f, err := s.ComputeF(Request{Block: 33, EIRPUnits: map[int]int64{2: eirp}})
	if err != nil {
		t.Fatalf("ComputeF: %v", err)
	}
	// Entry at the SU's own block: gain at the clamped half-block
	// distance (5 m).
	g := s.Params().Grid
	d, err := g.Distance(33, 33)
	if err != nil {
		t.Fatal(err)
	}
	wantSelf := int64(math.Round(float64(eirp) * propagation.Gain(s.Params().Secondary, d)))
	if v := mustAt(t, f, 2, 33); v != wantSelf {
		t.Errorf("F(2, 33) = %d, want %d", v, wantSelf)
	}
	// Channels that were not requested stay zero everywhere.
	for b := 0; b < g.Blocks(); b++ {
		if v := mustAt(t, f, 0, b); v != 0 {
			t.Fatalf("F(0, %d) = %d for unrequested channel", b, v)
		}
	}
}

func TestComputeFRespectsProtectionDistance(t *testing.T) {
	// Tight worst-case propagation shrinks d^c to about 11 m, so
	// only the SU's own and adjacent blocks are populated.
	p := testParams(t)
	p.WorstCase = propagation.LogDistance{RefLossDB: 60, Exponent: 4}
	s, err := NewSystem(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := s.planner.ProtectionDistance(0)
	if err != nil {
		t.Fatal(err)
	}
	if d > 20 {
		t.Fatalf("test premise broken: d^c = %g, want < 20", d)
	}
	f, err := s.ComputeF(Request{Block: 33, EIRPUnits: map[int]int64{0: p.Quantize(p.SUMaxEIRPmW)}})
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	err = f.ForEach(func(c, b int, v int64) error {
		if v != 0 {
			count++
			dist, err := p.Grid.Distance(33, geo.BlockID(b))
			if err != nil {
				return err
			}
			if dist > d {
				t.Errorf("F populated at block %d, %g m away > d^c %g", b, dist, d)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count == 0 || count > 9 {
		t.Errorf("populated entries = %d, want small neighbourhood", count)
	}
}

func TestComputeFValidation(t *testing.T) {
	s := newTestSystem(t, nil)
	overCap := s.Params().Quantize(s.Params().SUMaxEIRPmW) + 1
	bad := []Request{
		{Block: 999, EIRPUnits: map[int]int64{0: 1}},
		{Block: 0, EIRPUnits: map[int]int64{-1: 1}},
		{Block: 0, EIRPUnits: map[int]int64{9: 1}},
		{Block: 0, EIRPUnits: map[int]int64{0: -1}},
		{Block: 0, EIRPUnits: map[int]int64{0: overCap}},
	}
	for i, req := range bad {
		if _, err := s.ComputeF(req); err == nil {
			t.Errorf("request %d accepted: %+v", i, req)
		}
	}
}

func TestEvaluateGrantsWhenNoPUs(t *testing.T) {
	s := newTestSystem(t, nil)
	maxUnits := s.Params().Quantize(s.Params().SUMaxEIRPmW)
	dec, err := s.Evaluate(Request{Block: 20, EIRPUnits: map[int]int64{1: maxUnits}})
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if !dec.Granted {
		t.Errorf("max-power SU denied with no active PUs: %+v", dec.Violations)
	}
}

func TestEvaluateDeniesInterferingSU(t *testing.T) {
	s := newTestSystem(t, nil)
	// Weak PU (at the minimum usable signal) right next to a
	// powerful SU.
	sig := s.Params().Quantize(s.Params().SMinPUmW) // 10^4 units
	if err := s.UpdatePU("tv", Registration{Block: 21, Channel: 1, SignalUnits: sig}); err != nil {
		t.Fatal(err)
	}
	maxUnits := s.Params().Quantize(s.Params().SUMaxEIRPmW)
	dec, err := s.Evaluate(Request{Block: 20, EIRPUnits: map[int]int64{1: maxUnits}})
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if dec.Granted {
		t.Fatal("max-power SU adjacent to weak PU was granted")
	}
	if len(dec.Violations) == 0 {
		t.Fatal("denial carries no violations")
	}
	v := dec.Violations[0]
	if v.Channel != 1 {
		t.Errorf("violation channel = %d, want 1", v.Channel)
	}
	if v.InterferenceUnits < v.BudgetUnits {
		t.Errorf("violation has R=%d < N=%d", v.InterferenceUnits, v.BudgetUnits)
	}
}

func TestEvaluateDecisionTracksPULifecycle(t *testing.T) {
	s := newTestSystem(t, nil)
	sig := s.Params().Quantize(s.Params().SMinPUmW)
	req := Request{Block: 20, EIRPUnits: map[int]int64{1: s.Params().Quantize(s.Params().SUMaxEIRPmW)}}

	decide := func() bool {
		t.Helper()
		dec, err := s.Evaluate(req)
		if err != nil {
			t.Fatalf("Evaluate: %v", err)
		}
		return dec.Granted
	}

	if !decide() {
		t.Fatal("denied before any PU registered")
	}
	if err := s.UpdatePU("tv", Registration{Block: 21, Channel: 1, SignalUnits: sig}); err != nil {
		t.Fatal(err)
	}
	if decide() {
		t.Fatal("granted while PU active on requested channel")
	}
	// PU moves to a different channel: channel 1 frees up.
	if err := s.UpdatePU("tv", Registration{Block: 21, Channel: 2, SignalUnits: sig}); err != nil {
		t.Fatal(err)
	}
	if !decide() {
		t.Fatal("denied after PU switched away")
	}
	// PU back, then off.
	if err := s.UpdatePU("tv", Registration{Block: 21, Channel: 1, SignalUnits: sig}); err != nil {
		t.Fatal(err)
	}
	if decide() {
		t.Fatal("granted while PU re-activated")
	}
	if err := s.UpdatePU("tv", Registration{Channel: -1}); err != nil {
		t.Fatal(err)
	}
	if !decide() {
		t.Fatal("denied after PU switched off")
	}
}

func TestEvaluateLowPowerSUCoexists(t *testing.T) {
	s := newTestSystem(t, nil)
	// Strong PU signal: a quiet SU nearby fits inside the budget.
	sig := s.Params().Quantize(1e-2) // 40 dB above the minimum
	if err := s.UpdatePU("tv", Registration{Block: 21, Channel: 1, SignalUnits: sig}); err != nil {
		t.Fatal(err)
	}
	dec, err := s.Evaluate(Request{Block: 25, EIRPUnits: map[int]int64{1: s.Params().Quantize(1)}})
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if !dec.Granted {
		t.Errorf("1 mW SU 40 m from strong PU denied: %+v", dec.Violations)
	}
}

func TestMaxEIRPDropsWhenPUAppears(t *testing.T) {
	s := newTestSystem(t, nil)
	before, err := s.MaxEIRPUnits(1, 20)
	if err != nil {
		t.Fatal(err)
	}
	sig := s.Params().Quantize(s.Params().SMinPUmW)
	if err := s.UpdatePU("tv", Registration{Block: 21, Channel: 1, SignalUnits: sig}); err != nil {
		t.Fatal(err)
	}
	after, err := s.MaxEIRPUnits(1, 20)
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Errorf("max EIRP did not drop: before=%d after=%d", before, after)
	}
	// Far from the PU the cap recovers (WATCH's fine-grained zone).
	farAfter, err := s.MaxEIRPUnits(1, 59)
	if err != nil {
		t.Fatal(err)
	}
	if farAfter <= after {
		t.Errorf("cap at far block %d <= cap next to PU %d", farAfter, after)
	}
}

func TestMaxEIRPValidation(t *testing.T) {
	s := newTestSystem(t, nil)
	if _, err := s.MaxEIRPUnits(-1, 0); err == nil {
		t.Error("negative channel accepted")
	}
	if _, err := s.MaxEIRPUnits(0, 999); err == nil {
		t.Error("invalid block accepted")
	}
}

func TestConservativeContoursBehaveLikeTVWS(t *testing.T) {
	tx := TVTransmitter{Location: geo.Point{X: 15, Y: 15}, Channel: 1, EIRPmW: 1e9}
	pWatch := testParams(t)
	watchSys, err := NewSystem(pWatch, []TVTransmitter{tx})
	if err != nil {
		t.Fatal(err)
	}
	pTVWS := testParams(t)
	pTVWS.ConservativeContours = true
	tvwsSys, err := NewSystem(pTVWS, []TVTransmitter{tx})
	if err != nil {
		t.Fatal(err)
	}
	// No active receivers anywhere. A max-power SU inside the
	// transmitter contour: WATCH grants, TVWS denies.
	req := Request{Block: 11, EIRPUnits: map[int]int64{1: pWatch.Quantize(4000)}}
	wd, err := watchSys.Evaluate(req)
	if err != nil {
		t.Fatal(err)
	}
	td, err := tvwsSys.Evaluate(req)
	if err != nil {
		t.Fatal(err)
	}
	if !wd.Granted {
		t.Error("WATCH denied inside inactive contour (should reuse the channel)")
	}
	if td.Granted {
		t.Error("TVWS-mode granted inside protected contour")
	}
}

func TestPerChannelProtectionDistance(t *testing.T) {
	// With a frequency-aware worst-case model, higher channels
	// (higher frequency, more loss) get smaller protection zones.
	p := testParams(t)
	p.WorstCase = propagation.FreeSpace{FreqMHz: 470}
	pl, err := NewPlanner(p)
	if err != nil {
		t.Fatal(err)
	}
	d0, err := pl.ProtectionDistance(0) // 470 MHz
	if err != nil {
		t.Fatal(err)
	}
	d4, err := pl.ProtectionDistance(4) // 494 MHz
	if err != nil {
		t.Fatal(err)
	}
	if d4 >= d0 {
		t.Errorf("d^c not decreasing with frequency: d0=%g d4=%g", d0, d4)
	}
	// A frequency-blind model yields identical distances.
	p.WorstCase = propagation.LogDistance{RefLossDB: 38, Exponent: 2.8}
	pl2, err := NewPlanner(p)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := pl2.ProtectionDistance(0)
	b, _ := pl2.ProtectionDistance(4)
	if a != b {
		t.Errorf("frequency-blind model produced distinct distances: %g vs %g", a, b)
	}
}

func TestCustomChannelFrequencies(t *testing.T) {
	p := testParams(t)
	p.WorstCase = propagation.FreeSpace{FreqMHz: 470}
	p.ChannelFreqMHz = func(c int) float64 { return 2400 + 5*float64(c) } // WiFi-style plan
	pl, err := NewPlanner(p)
	if err != nil {
		t.Fatal(err)
	}
	pDefault := testParams(t)
	pDefault.WorstCase = propagation.FreeSpace{FreqMHz: 470}
	plDefault, err := NewPlanner(pDefault)
	if err != nil {
		t.Fatal(err)
	}
	dCustom, _ := pl.ProtectionDistance(0)
	dUHF, _ := plDefault.ProtectionDistance(0)
	if dCustom >= dUHF {
		t.Errorf("2.4 GHz plan should shrink d^c versus UHF: %g vs %g", dCustom, dUHF)
	}
}

func TestMaxEIRPConsistentWithEvaluate(t *testing.T) {
	// Property: for random PU placements, a request at exactly the
	// published cap is granted and one just above a strictly smaller
	// cap is denied. This ties eq. 2 (the published cap) to the
	// admission decision (eqs. 5-7).
	s := newTestSystem(t, nil)
	rng := quickRand()
	for trial := 0; trial < 12; trial++ {
		block := geo.BlockID(rng.Intn(s.Params().Grid.Blocks()))
		channel := rng.Intn(s.Params().Channels)
		sig := s.Params().Quantize(s.Params().SMinPUmW * float64(1+rng.Intn(50)))
		if err := s.UpdatePU("prop-pu", Registration{Block: block, Channel: channel, SignalUnits: sig}); err != nil {
			t.Fatal(err)
		}
		suBlock := geo.BlockID(rng.Intn(s.Params().Grid.Blocks()))
		cap, err := s.MaxEIRPUnits(channel, suBlock)
		if err != nil {
			t.Fatal(err)
		}
		if cap <= 0 {
			continue // fully blocked cell; nothing to grant
		}
		dec, err := s.Evaluate(Request{Block: suBlock, EIRPUnits: map[int]int64{channel: cap}})
		if err != nil {
			t.Fatal(err)
		}
		if !dec.Granted {
			t.Fatalf("trial %d: request at published cap %d denied (PU at %d ch %d, SU at %d)",
				trial, cap, block, channel, suBlock)
		}
		// Well over the cap must be denied. The cap is conservative
		// against fixed-point rounding, so only check when the
		// margin dwarfs a rounding unit and the cap sits below the
		// regulatory limit (else "over" is simply an invalid power).
		over := cap * 2
		regLimit := s.Params().Quantize(s.Params().SUMaxEIRPmW)
		if cap > 1000 && cap < regLimit && over <= regLimit {
			dec, err := s.Evaluate(Request{Block: suBlock, EIRPUnits: map[int]int64{channel: over}})
			if err != nil {
				t.Fatal(err)
			}
			if dec.Granted {
				t.Fatalf("trial %d: request %d at double the cap %d granted", trial, over, cap)
			}
		}
	}
}

// quickRand returns a fixed-seed rng for property-style loops.
func quickRand() *mrand.Rand {
	return mrand.New(mrand.NewSource(99))
}
