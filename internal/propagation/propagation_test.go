package propagation

import (
	"math"
	"testing"
)

func TestUnitConversionsRoundTrip(t *testing.T) {
	for _, tc := range []struct{ db, lin float64 }{
		{0, 1}, {3, 1.9952623149688795}, {10, 10}, {15, 31.622776601683793}, {30, 1000}, {-20, 0.01},
	} {
		if got := DBToLinear(tc.db); math.Abs(got-tc.lin) > 1e-12*tc.lin {
			t.Errorf("%g dB = %g linear, want %g", tc.db, got, tc.lin)
		}
	}
}

func TestFreeSpaceKnownValue(t *testing.T) {
	// FSPL at 1 km, 2437 MHz (WiFi channel 6) is about 100.2 dB.
	m := FreeSpace{FreqMHz: 2437}
	got := m.LossDB(1000)
	if math.Abs(got-100.2) > 0.3 {
		t.Errorf("FSPL(1 km, 2437 MHz) = %g dB, want about 100.2", got)
	}
	// Doubling distance adds 6.02 dB.
	d1, d2 := m.LossDB(2000), m.LossDB(1000)
	if math.Abs((d1-d2)-6.02) > 0.01 {
		t.Errorf("doubling distance added %g dB, want about 6.02", d1-d2)
	}
}

func TestFreeSpaceClampsShortLinks(t *testing.T) {
	m := FreeSpace{FreqMHz: 600}
	if m.LossDB(0) != m.LossDB(1) {
		t.Error("0 m not clamped to MinDistance")
	}
	if m.LossDB(0.5) != m.LossDB(1) {
		t.Error("0.5 m not clamped to MinDistance")
	}
}

func TestLogDistanceExponent(t *testing.T) {
	m := LogDistance{RefLossDB: 40, RefDistance: 1, Exponent: 3}
	if got := m.LossDB(1); got != 40 {
		t.Errorf("loss at d0 = %g, want 40", got)
	}
	// Each decade adds 10*n dB.
	if got := m.LossDB(10) - m.LossDB(1); math.Abs(got-30) > 1e-9 {
		t.Errorf("decade delta = %g, want 30", got)
	}
	if got := m.LossDB(100) - m.LossDB(10); math.Abs(got-30) > 1e-9 {
		t.Errorf("second decade delta = %g, want 30", got)
	}
}

func TestModelsMonotoneInDistance(t *testing.T) {
	models := []Model{
		FreeSpace{FreqMHz: 600},
		LogDistance{RefLossDB: 40, Exponent: 2.8},
		ExtendedHata{FreqMHz: 600, BaseHeight: 100, MobileHeight: 10},
	}
	for _, m := range models {
		prev := math.Inf(-1)
		for d := 1.0; d < 50000; d *= 1.5 {
			l := m.LossDB(d)
			if l < prev-1e-9 {
				t.Errorf("%s: loss decreased from %g to %g at d=%g", m.Name(), prev, l, d)
			}
			prev = l
		}
	}
}

func TestExtendedHataPlausibleRange(t *testing.T) {
	// Published Hata sub-urban values for f=600 MHz, hb=100 m,
	// hm=1.5 m sit near 105-150 dB over 1-20 km.
	m := ExtendedHata{FreqMHz: 600, BaseHeight: 100, MobileHeight: 1.5}
	l1 := m.LossDB(1000)
	l20 := m.LossDB(20000)
	if l1 < 90 || l1 > 130 {
		t.Errorf("loss at 1 km = %g dB, outside plausible 90-130", l1)
	}
	if l20 < 130 || l20 > 180 {
		t.Errorf("loss at 20 km = %g dB, outside plausible 130-180", l20)
	}
	if l20 <= l1 {
		t.Error("loss not increasing 1 km -> 20 km")
	}
}

func TestGainInUnitInterval(t *testing.T) {
	m := ExtendedHata{FreqMHz: 600, BaseHeight: 100, MobileHeight: 10}
	for d := 10.0; d < 1e5; d *= 3 {
		g := Gain(m, d)
		if g <= 0 || g > 1 {
			t.Errorf("gain at %g m = %g, outside (0, 1]", d, g)
		}
	}
}

func TestShadowedDeterministic(t *testing.T) {
	base := FreeSpace{FreqMHz: 600}
	a := Shadowed{Base: base, SigmaDB: 8, Seed: 42, LinkKey: 7}
	b := Shadowed{Base: base, SigmaDB: 8, Seed: 42, LinkKey: 7}
	if a.LossDB(500) != b.LossDB(500) {
		t.Error("same (seed, key) produced different shadowing")
	}
	c := Shadowed{Base: base, SigmaDB: 8, Seed: 42, LinkKey: 8}
	if a.LossDB(500) == c.LossDB(500) {
		t.Error("different keys produced identical shadowing (collision suspicious)")
	}
}

func TestShadowedNeverNegative(t *testing.T) {
	base := LogDistance{RefLossDB: 1, Exponent: 2}
	for key := uint64(0); key < 200; key++ {
		s := Shadowed{Base: base, SigmaDB: 30, Seed: 1, LinkKey: key}
		if l := s.LossDB(1); l < 0 {
			t.Fatalf("shadowed loss went negative: %g (key %d)", l, key)
		}
	}
}

func TestShadowingDistributionRoughlyCentred(t *testing.T) {
	base := FreeSpace{FreqMHz: 600}
	raw := base.LossDB(1000)
	var sum, sumSq float64
	const n = 2000
	for key := uint64(0); key < n; key++ {
		s := Shadowed{Base: base, SigmaDB: 8, Seed: 99, LinkKey: key}
		d := s.LossDB(1000) - raw
		sum += d
		sumSq += d * d
	}
	mean := sum / n
	std := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean) > 1 {
		t.Errorf("shadowing mean = %g dB, want about 0", mean)
	}
	if std < 6 || std > 10 {
		t.Errorf("shadowing std = %g dB, want about 8", std)
	}
}

func TestProtectionDistanceMonotoneInThreshold(t *testing.T) {
	m := ExtendedHata{FreqMHz: 600, BaseHeight: 30, MobileHeight: 10, MinDistance: 10}
	d1, err := ProtectionDistance(m, 1e-6, 4000, 15, 3)
	if err != nil {
		t.Fatalf("ProtectionDistance: %v", err)
	}
	// A more sensitive PU (lower minimum signal => lower target gain?)
	// Actually: lower sMinPU lowers the target gain, pushing the
	// protection distance outward.
	d2, err := ProtectionDistance(m, 1e-8, 4000, 15, 3)
	if err != nil {
		t.Fatalf("ProtectionDistance: %v", err)
	}
	if d2 <= d1 {
		t.Errorf("more sensitive PU got smaller exclusion: %g <= %g", d2, d1)
	}
}

func TestProtectionDistanceSatisfiesDefinition(t *testing.T) {
	m := FreeSpace{FreqMHz: 600}
	sMin, sMax, sinr, redn := 1e-5, 4000.0, 15.0, 3.0
	d, err := ProtectionDistance(m, sMin, sMax, sinr, redn)
	if err != nil {
		t.Fatalf("ProtectionDistance: %v", err)
	}
	target := sMin / (sMax * (sinr + redn))
	if g := Gain(m, d); g > target*(1+1e-6) {
		t.Errorf("gain at returned distance %g = %g > target %g", d, g, target)
	}
	if d > 1 {
		if g := Gain(m, d*0.99); g <= target {
			t.Errorf("distance not minimal: gain just inside = %g <= target %g", g, target)
		}
	}
}

func TestProtectionDistanceZeroWhenHarmless(t *testing.T) {
	// Enormous loss at any distance: SU can never harm the PU.
	m := LogDistance{RefLossDB: 300, Exponent: 4}
	d, err := ProtectionDistance(m, 1, 1, 1, 0)
	if err != nil {
		t.Fatalf("ProtectionDistance: %v", err)
	}
	if d != 0 {
		t.Errorf("harmless SU got protection distance %g, want 0", d)
	}
}

func TestProtectionDistanceRejectsBadParams(t *testing.T) {
	m := FreeSpace{FreqMHz: 600}
	bad := [][4]float64{
		{0, 1, 1, 0},
		{1, 0, 1, 0},
		{1, 1, 0, 0},
		{1, 1, 1, -1},
	}
	for _, p := range bad {
		if _, err := ProtectionDistance(m, p[0], p[1], p[2], p[3]); err == nil {
			t.Errorf("params %v accepted", p)
		}
	}
}

func TestAtFrequency(t *testing.T) {
	fs := FreeSpace{FreqMHz: 470}
	hi := fs.AtFrequency(700)
	if hi.LossDB(1000) <= fs.LossDB(1000) {
		t.Error("raising frequency did not raise free-space loss")
	}
	eh := ExtendedHata{FreqMHz: 470, BaseHeight: 100, MobileHeight: 1.5}
	ehHi := eh.AtFrequency(700)
	if ehHi.LossDB(5000) <= eh.LossDB(5000) {
		t.Error("raising frequency did not raise Hata loss")
	}
	// Shadowed wrapper retargets its base and keeps the offset
	// deterministic.
	sh := Shadowed{Base: fs, SigmaDB: 6, Seed: 3, LinkKey: 9}
	shHi, ok := sh.AtFrequency(700).(Shadowed)
	if !ok {
		t.Fatal("Shadowed.AtFrequency lost the wrapper")
	}
	if shHi.LossDB(1000)-sh.LossDB(1000) <= 0 {
		t.Error("shadowed loss did not rise with frequency")
	}
	// Frequency-blind base passes through unchanged.
	blind := Shadowed{Base: LogDistance{RefLossDB: 40, Exponent: 3}, SigmaDB: 6}
	if got := blind.AtFrequency(700).(Shadowed); got.LossDB(100) != blind.LossDB(100) {
		t.Error("frequency-blind base changed under AtFrequency")
	}
}
