// Package airsim is the PHY-layer substrate standing in for the
// paper's USRP software-defined-radio testbed (§VI-B, Figure 7): 2.4
// GHz nodes exchanging packet bursts over a path-loss channel, with an
// observable received-envelope trace per receiver. The four
// experiment scenarios (Figures 8-11) are reproduced by driving the
// PISA protocol for the control plane and this simulator for the data
// plane; see examples/sdrlab.
//
// The simulator is deterministic: all noise derives from the
// configured seed, so experiment figures are reproducible
// sample-for-sample.
package airsim

import (
	"fmt"
	"math"
	"sort"
	"time"

	"pisa/internal/geo"
	"pisa/internal/propagation"
)

// NodeID names a radio in the simulation.
type NodeID string

// Config fixes the channel the simulation runs on. The paper's
// experiment uses WiFi channel 6: centre 2437 MHz, 22 MHz bandwidth,
// 20 MHz sample rate.
type Config struct {
	// FreqMHz is the carrier frequency.
	FreqMHz float64
	// SampleRateHz is the receiver sampling rate.
	SampleRateHz float64
	// Model is the link path-loss model.
	Model propagation.Model
	// NoiseFloorMW is the mean receiver noise power.
	NoiseFloorMW float64
	// Seed drives all deterministic noise.
	Seed uint64
}

// DefaultConfig matches the paper's testbed: channel 6 at 20 MHz with
// a short-range log-distance indoor channel.
func DefaultConfig() Config {
	return Config{
		FreqMHz:      2437,
		SampleRateHz: 20e6,
		Model:        propagation.LogDistance{RefLossDB: 40, RefDistance: 1, Exponent: 2.7},
		NoiseFloorMW: 1e-9,
		Seed:         1,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.FreqMHz <= 0:
		return fmt.Errorf("airsim: FreqMHz must be positive, got %g", c.FreqMHz)
	case c.SampleRateHz <= 0:
		return fmt.Errorf("airsim: SampleRateHz must be positive, got %g", c.SampleRateHz)
	case c.Model == nil:
		return fmt.Errorf("airsim: Model is required")
	case c.NoiseFloorMW <= 0:
		return fmt.Errorf("airsim: NoiseFloorMW must be positive, got %g", c.NoiseFloorMW)
	}
	return nil
}

// Node is a radio with a fixed position and transmit power.
type Node struct {
	ID        NodeID
	Pos       geo.Point
	TxPowerMW float64
}

// Burst is one packet on the air: a constant-envelope transmission
// from a node over a time interval.
type Burst struct {
	From     NodeID
	Start    time.Duration
	Duration time.Duration
}

// Event is a control-plane happening recorded for scenario
// narration (the message sequences of Figures 10 and 11).
type Event struct {
	T    time.Duration
	From string
	To   string
	What string
}

// Sim is a deterministic radio environment.
type Sim struct {
	cfg    Config
	nodes  map[NodeID]*Node
	bursts []Burst
	events []Event
}

// New builds an empty simulation.
func New(cfg Config) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Sim{
		cfg:   cfg,
		nodes: make(map[NodeID]*Node),
	}, nil
}

// Config returns the simulation configuration.
func (s *Sim) Config() Config { return s.cfg }

// AddNode registers a radio.
func (s *Sim) AddNode(n Node) error {
	if n.ID == "" {
		return fmt.Errorf("airsim: node requires an id")
	}
	if n.TxPowerMW < 0 {
		return fmt.Errorf("airsim: node %q has negative power", n.ID)
	}
	if _, ok := s.nodes[n.ID]; ok {
		return fmt.Errorf("airsim: node %q already exists", n.ID)
	}
	s.nodes[n.ID] = &n
	return nil
}

// Node returns a registered radio.
func (s *Sim) Node(id NodeID) (*Node, error) {
	n, ok := s.nodes[id]
	if !ok {
		return nil, fmt.Errorf("airsim: node %q not found", id)
	}
	return n, nil
}

// SendPacket schedules one burst from a node.
func (s *Sim) SendPacket(from NodeID, start, duration time.Duration) error {
	if _, err := s.Node(from); err != nil {
		return err
	}
	if duration <= 0 {
		return fmt.Errorf("airsim: packet duration must be positive, got %v", duration)
	}
	s.bursts = append(s.bursts, Burst{From: from, Start: start, Duration: duration})
	return nil
}

// SendPacketTrain schedules n equally spaced packets starting at
// start: each lasts duration with gap between consecutive starts.
func (s *Sim) SendPacketTrain(from NodeID, start, duration, gap time.Duration, n int) error {
	if n <= 0 {
		return fmt.Errorf("airsim: packet count must be positive, got %d", n)
	}
	for i := 0; i < n; i++ {
		if err := s.SendPacket(from, start+time.Duration(i)*gap, duration); err != nil {
			return err
		}
	}
	return nil
}

// linkGain returns the path gain between two nodes.
func (s *Sim) linkGain(a, b *Node) float64 {
	d := a.Pos.Distance(b.Pos)
	if d < 0.1 {
		d = 0.1
	}
	return propagation.Gain(s.cfg.Model, d)
}

// ReceivedPowerMW returns the aggregate power the receiver sees at
// instant t: every active burst attenuated by its link, plus the
// noise floor.
func (s *Sim) ReceivedPowerMW(rx NodeID, t time.Duration) (float64, error) {
	rxNode, err := s.Node(rx)
	if err != nil {
		return 0, err
	}
	total := s.cfg.NoiseFloorMW
	for _, b := range s.bursts {
		if t < b.Start || t >= b.Start+b.Duration || b.From == rx {
			continue
		}
		tx := s.nodes[b.From]
		total += tx.TxPowerMW * s.linkGain(tx, rxNode)
	}
	return total, nil
}

// Sample is one point of a receiver trace.
type Sample struct {
	// T is the sample instant.
	T time.Duration
	// PowerMW is the instantaneous received power.
	PowerMW float64
	// Amplitude is the envelope amplitude (sqrt power, arbitrary
	// units) — the quantity the paper's waveform figures plot.
	Amplitude float64
}

// Trace samples the receiver envelope over [start, end) with the
// given number of samples, adding deterministic noise jitter.
func (s *Sim) Trace(rx NodeID, start, end time.Duration, samples int) ([]Sample, error) {
	if samples <= 0 {
		return nil, fmt.Errorf("airsim: sample count must be positive, got %d", samples)
	}
	if end <= start {
		return nil, fmt.Errorf("airsim: empty trace window [%v, %v)", start, end)
	}
	out := make([]Sample, samples)
	step := (end - start) / time.Duration(samples)
	if step <= 0 {
		step = time.Nanosecond
	}
	for i := range out {
		t := start + time.Duration(i)*step
		p, err := s.ReceivedPowerMW(rx, t)
		if err != nil {
			return nil, err
		}
		// Multiplicative envelope jitter in [0.9, 1.1), deterministic
		// per (seed, receiver, sample).
		jitter := 0.9 + 0.2*unitHash(s.cfg.Seed, hashString(string(rx)), uint64(i))
		p *= jitter
		out[i] = Sample{T: t, PowerMW: p, Amplitude: math.Sqrt(p)}
	}
	return out, nil
}

// CountPackets counts rising edges above the threshold in a trace —
// the packet counter behind "11 packets within 20 ms" (Figure 9).
func CountPackets(trace []Sample, thresholdMW float64) int {
	count := 0
	above := false
	for _, s := range trace {
		high := s.PowerMW >= thresholdMW
		if high && !above {
			count++
		}
		above = high
	}
	return count
}

// Record appends a control-plane event for scenario narration.
func (s *Sim) Record(t time.Duration, from, to, what string) {
	s.events = append(s.events, Event{T: t, From: from, To: to, What: what})
}

// Events returns the recorded control-plane log in time order.
func (s *Sim) Events() []Event {
	out := append([]Event(nil), s.events...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].T < out[j].T })
	return out
}

// unitHash maps (seed, a, b) to a deterministic uniform value in
// [0, 1).
func unitHash(seed, a, b uint64) float64 {
	x := splitmix64(seed ^ splitmix64(a) ^ splitmix64(b*0x9e3779b97f4a7c15))
	return float64(x>>11) / (1 << 53)
}

func hashString(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
