package airsim

import (
	"math"
	"testing"
	"time"

	"pisa/internal/geo"
)

func newSim(t *testing.T) *Sim {
	t.Helper()
	s, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func addNode(t *testing.T, s *Sim, id NodeID, x, y, powerMW float64) {
	t.Helper()
	if err := s.AddNode(Node{ID: id, Pos: geo.Point{X: x, Y: y}, TxPowerMW: powerMW}); err != nil {
		t.Fatalf("AddNode(%s): %v", id, err)
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.FreqMHz = 0 },
		func(c *Config) { c.SampleRateHz = -1 },
		func(c *Config) { c.Model = nil },
		func(c *Config) { c.NoiseFloorMW = 0 },
	}
	for i, mut := range mutations {
		c := DefaultConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
		if _, err := New(c); err == nil {
			t.Errorf("New accepted mutation %d", i)
		}
	}
}

func TestNodeRegistry(t *testing.T) {
	s := newSim(t)
	addNode(t, s, "pu", 0, 0, 100)
	if err := s.AddNode(Node{ID: "pu", TxPowerMW: 1}); err == nil {
		t.Error("duplicate node accepted")
	}
	if err := s.AddNode(Node{ID: "", TxPowerMW: 1}); err == nil {
		t.Error("empty id accepted")
	}
	if err := s.AddNode(Node{ID: "x", TxPowerMW: -1}); err == nil {
		t.Error("negative power accepted")
	}
	if _, err := s.Node("ghost"); err == nil {
		t.Error("unknown node lookup succeeded")
	}
}

func TestQuietChannelIsNoiseFloor(t *testing.T) {
	s := newSim(t)
	addNode(t, s, "pu", 0, 0, 100)
	p, err := s.ReceivedPowerMW("pu", 0)
	if err != nil {
		t.Fatal(err)
	}
	if p != s.Config().NoiseFloorMW {
		t.Errorf("quiet channel power = %g, want noise floor %g", p, s.Config().NoiseFloorMW)
	}
}

func TestTwoSUsDistinctAmplitudes(t *testing.T) {
	// Figure 8: SU1 and SU2 at different distances from the PU
	// produce visibly different received amplitudes.
	s := newSim(t)
	addNode(t, s, "pu", 0, 0, 0)
	addNode(t, s, "su1", 2, 0, 100) // 2 m away
	addNode(t, s, "su2", 8, 0, 100) // 8 m away
	// Two packets inside 0.35 ms, as in the figure.
	if err := s.SendPacket("su1", 0, 100*time.Microsecond); err != nil {
		t.Fatal(err)
	}
	if err := s.SendPacket("su2", 200*time.Microsecond, 100*time.Microsecond); err != nil {
		t.Fatal(err)
	}
	p1, err := s.ReceivedPowerMW("pu", 50*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := s.ReceivedPowerMW("pu", 250*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if p1 <= p2 {
		t.Errorf("nearer SU not louder: p1=%g p2=%g", p1, p2)
	}
	if ratio := p1 / p2; ratio < 2 {
		t.Errorf("amplitude separation too small to be visible: ratio %g", ratio)
	}
	// Both packets are found by the detector.
	trace, err := s.Trace("pu", 0, 350*time.Microsecond, 700)
	if err != nil {
		t.Fatal(err)
	}
	if got := CountPackets(trace, 10*s.Config().NoiseFloorMW); got != 2 {
		t.Errorf("detected %d packets, want 2 (Figure 8)", got)
	}
}

func TestPacketTrainCount(t *testing.T) {
	// Figure 9: the granted SU sends 11 packets within 20 ms.
	s := newSim(t)
	addNode(t, s, "pu", 0, 0, 0)
	addNode(t, s, "su2", 5, 0, 100)
	if err := s.SendPacketTrain("su2", 0, 800*time.Microsecond, 1800*time.Microsecond, 11); err != nil {
		t.Fatal(err)
	}
	trace, err := s.Trace("pu", 0, 20*time.Millisecond, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if got := CountPackets(trace, 10*s.Config().NoiseFloorMW); got != 11 {
		t.Errorf("detected %d packets, want 11 (Figure 9)", got)
	}
}

func TestTraceDeterministic(t *testing.T) {
	build := func() []Sample {
		s := newSim(t)
		addNode(t, s, "pu", 0, 0, 0)
		addNode(t, s, "su", 5, 0, 100)
		if err := s.SendPacket("su", 0, time.Millisecond); err != nil {
			t.Fatal(err)
		}
		trace, err := s.Trace("pu", 0, time.Millisecond, 100)
		if err != nil {
			t.Fatal(err)
		}
		return trace
	}
	a, b := build(), build()
	for i := range a {
		if a[i].PowerMW != b[i].PowerMW {
			t.Fatalf("sample %d differs between identical runs", i)
		}
	}
}

func TestAmplitudeIsSqrtPower(t *testing.T) {
	s := newSim(t)
	addNode(t, s, "pu", 0, 0, 0)
	addNode(t, s, "su", 5, 0, 100)
	if err := s.SendPacket("su", 0, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	trace, err := s.Trace("pu", 0, time.Millisecond, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, sm := range trace {
		if math.Abs(sm.Amplitude*sm.Amplitude-sm.PowerMW) > 1e-12*sm.PowerMW {
			t.Fatalf("amplitude %g not sqrt of power %g", sm.Amplitude, sm.PowerMW)
		}
	}
}

func TestTransmitterDoesNotHearItself(t *testing.T) {
	s := newSim(t)
	addNode(t, s, "su", 0, 0, 100)
	if err := s.SendPacket("su", 0, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	p, err := s.ReceivedPowerMW("su", 500*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if p != s.Config().NoiseFloorMW {
		t.Errorf("node hears its own burst: %g", p)
	}
}

func TestEventsSortedByTime(t *testing.T) {
	s := newSim(t)
	s.Record(3*time.Millisecond, "sdc", "su1", "ack")
	s.Record(1*time.Millisecond, "pu", "sdc", "update")
	s.Record(2*time.Millisecond, "su1", "sdc", "request")
	evs := s.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].T < evs[i-1].T {
			t.Fatalf("events out of order: %v", evs)
		}
	}
	if evs[0].What != "update" {
		t.Errorf("first event = %q, want update", evs[0].What)
	}
}

func TestValidationErrors(t *testing.T) {
	s := newSim(t)
	addNode(t, s, "a", 0, 0, 1)
	if err := s.SendPacket("ghost", 0, time.Millisecond); err == nil {
		t.Error("packet from unknown node accepted")
	}
	if err := s.SendPacket("a", 0, 0); err == nil {
		t.Error("zero-duration packet accepted")
	}
	if err := s.SendPacketTrain("a", 0, time.Millisecond, time.Millisecond, 0); err == nil {
		t.Error("empty train accepted")
	}
	if _, err := s.Trace("a", 0, time.Millisecond, 0); err == nil {
		t.Error("zero-sample trace accepted")
	}
	if _, err := s.Trace("a", time.Millisecond, 0, 10); err == nil {
		t.Error("inverted window accepted")
	}
}
