// Package propagation provides the radio path-loss substrate PISA and
// WATCH compute over: free-space and log-distance reference models,
// the Extended Hata sub-urban model the paper names for E-matrix
// precomputation (§IV-A1), and a deterministic terrain-shadowing
// wrapper standing in for the Longley-Rice irregular terrain model
// (which needs USGS terrain databases that are not available offline;
// see DESIGN.md "Substitutions").
//
// Conventions: path loss is expressed either in dB (positive number,
// larger = more attenuation) or as linear *gain* h(d) in (0, 1], the
// multiplier the paper applies to transmit power: P_rx = P_tx * h(d).
package propagation

import (
	"fmt"
	"math"
)

// Model computes path loss as a function of link geometry.
type Model interface {
	// LossDB returns the path loss in dB over distance d metres.
	// Implementations must be monotonically non-decreasing in d.
	LossDB(dMeters float64) float64
	// Name identifies the model in logs and experiment output.
	Name() string
}

// Gain returns the linear path gain h(d) = 10^(-LossDB/10) for m.
func Gain(m Model, dMeters float64) float64 {
	return math.Pow(10, -m.LossDB(dMeters)/10)
}

// FrequencyAware is implemented by models whose loss depends on the
// carrier frequency; AtFrequency returns a copy retargeted to a new
// frequency. The WATCH planner uses this to derive per-channel
// protection distances d^c across the UHF band (470-700 MHz spans
// about 3 dB of free-space loss).
type FrequencyAware interface {
	Model
	AtFrequency(freqMHz float64) Model
}

// AtFrequency implements FrequencyAware.
func (f FreeSpace) AtFrequency(freqMHz float64) Model {
	f.FreqMHz = freqMHz
	return f
}

// AtFrequency implements FrequencyAware.
func (e ExtendedHata) AtFrequency(freqMHz float64) Model {
	e.FreqMHz = freqMHz
	return e
}

// AtFrequency implements FrequencyAware when the base model does;
// otherwise it returns the shadowed model unchanged.
func (s Shadowed) AtFrequency(freqMHz float64) Model {
	if fa, ok := s.Base.(FrequencyAware); ok {
		s.Base = fa.AtFrequency(freqMHz)
	}
	return s
}

// DBToLinear converts a dB ratio to a linear ratio.
func DBToLinear(db float64) float64 { return math.Pow(10, db/10) }

// FreeSpace is the free-space path loss model
// L = 20 log10(d_km) + 20 log10(f_MHz) + 32.45 dB.
type FreeSpace struct {
	// FreqMHz is the carrier frequency in MHz.
	FreqMHz float64
	// MinDistance clamps very short links so loss never goes
	// negative; defaults to 1 m when zero.
	MinDistance float64
}

// Name implements Model.
func (f FreeSpace) Name() string { return "free-space" }

// LossDB implements Model.
func (f FreeSpace) LossDB(dMeters float64) float64 {
	minD := f.MinDistance
	if minD <= 0 {
		minD = 1
	}
	d := math.Max(dMeters, minD) / 1000 // km
	return 20*math.Log10(d) + 20*math.Log10(f.FreqMHz) + 32.45
}

// LogDistance is the log-distance model
// L = L0 + 10 * n * log10(d / d0), the workhorse for indoor/short-range
// links in the §VI-B simulation.
type LogDistance struct {
	// RefLossDB is the loss L0 at the reference distance.
	RefLossDB float64
	// RefDistance is d0 in metres; defaults to 1 m when zero.
	RefDistance float64
	// Exponent is the path-loss exponent n (2 = free space,
	// 2.7-3.5 typical urban).
	Exponent float64
}

// Name implements Model.
func (l LogDistance) Name() string { return "log-distance" }

// LossDB implements Model.
func (l LogDistance) LossDB(dMeters float64) float64 {
	d0 := l.RefDistance
	if d0 <= 0 {
		d0 = 1
	}
	d := math.Max(dMeters, d0)
	return l.RefLossDB + 10*l.Exponent*math.Log10(d/d0)
}

// ExtendedHata is the Extended Hata model in its sub-urban variant,
// the model the paper cites for SDC E-matrix precomputation. Valid
// nominally for f in 150-2000 MHz, d in 1-20 km; distances below
// MinDistance are clamped (the model diverges as d -> 0).
type ExtendedHata struct {
	// FreqMHz is the carrier frequency in MHz (UHF TV: 470-700).
	FreqMHz float64
	// BaseHeight is the transmitter antenna height h_b in metres.
	BaseHeight float64
	// MobileHeight is the receiver antenna height h_m in metres.
	MobileHeight float64
	// MinDistance clamps short links, metres; defaults to 20 m.
	MinDistance float64
}

// Name implements Model.
func (e ExtendedHata) Name() string { return "extended-hata-suburban" }

// LossDB implements Model.
func (e ExtendedHata) LossDB(dMeters float64) float64 {
	minD := e.MinDistance
	if minD <= 0 {
		minD = 20
	}
	d := math.Max(dMeters, minD) / 1000 // km
	f := e.FreqMHz
	hb := e.BaseHeight
	hm := e.MobileHeight
	// Mobile antenna correction for a small/medium city.
	ahm := (1.1*math.Log10(f)-0.7)*hm - (1.56*math.Log10(f) - 0.8)
	urban := 69.55 + 26.16*math.Log10(f) - 13.82*math.Log10(hb) - ahm +
		(44.9-6.55*math.Log10(hb))*math.Log10(d)
	// Sub-urban correction.
	return urban - 2*math.Pow(math.Log10(f/28), 2) - 5.4
}

// Shadowed decorates a base model with deterministic log-normal
// terrain shadowing: every (x, y) position pair hashes to a stable
// Gaussian offset, so repeated queries for the same link agree. This
// stands in for Longley-Rice terrain effects; see DESIGN.md.
type Shadowed struct {
	// Base is the underlying distance-loss model.
	Base Model
	// SigmaDB is the shadowing standard deviation (6-8 dB typical).
	SigmaDB float64
	// Seed decorrelates independent deployments.
	Seed uint64
	// LinkKey distinguishes links at equal distance; callers set it
	// per (tx block, rx block) pair. Zero is a valid key.
	LinkKey uint64
}

// Name implements Model.
func (s Shadowed) Name() string { return s.Base.Name() + "+shadowing" }

// LossDB implements Model.
func (s Shadowed) LossDB(dMeters float64) float64 {
	base := s.Base.LossDB(dMeters)
	offset := s.SigmaDB * gaussianHash(s.Seed, s.LinkKey)
	loss := base + offset
	// Shadowing never turns a lossy link into an amplifier.
	return math.Max(loss, 0)
}

// gaussianHash maps (seed, key) to a deterministic standard-normal
// sample via splitmix64 and Box-Muller.
func gaussianHash(seed, key uint64) float64 {
	u1 := float64(splitmix64(seed^0x9e3779b97f4a7c15^key)>>11) / (1 << 53)
	u2 := float64(splitmix64(seed+key*0xbf58476d1ce4e5b9)>>11) / (1 << 53)
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// splitmix64 is the SplitMix64 mixing function.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ProtectionDistance solves equation (1) of the paper: the distance
// d^c within which SU EIRP must be constrained, defined implicitly by
//
//	deltaSINR + deltaRedn = S_min^PU / (S_max^SU * h_max(d^c))
//
// i.e. the largest distance at which a maximum-power SU could still
// push the PU below its protection ratio. All powers in milliwatts,
// ratios linear. worst is the h_max model (maximum gain over a given
// distance, i.e. minimum loss). Returns the smallest distance d such
// that Gain(worst, d) <= sMinPU / (sMaxSU * (deltaSINR + deltaRedn)),
// found by exponential search plus bisection over the monotone model.
func ProtectionDistance(worst Model, sMinPU, sMaxSU, deltaSINR, deltaRedn float64) (float64, error) {
	if sMinPU <= 0 || sMaxSU <= 0 || deltaSINR <= 0 || deltaRedn < 0 {
		return 0, fmt.Errorf("propagation: non-positive parameter in protection distance (sMin=%g sMax=%g sinr=%g redn=%g)",
			sMinPU, sMaxSU, deltaSINR, deltaRedn)
	}
	target := sMinPU / (sMaxSU * (deltaSINR + deltaRedn))
	if Gain(worst, 0) <= target {
		// Even a co-located max-power SU cannot harm the PU.
		return 0, nil
	}
	// Exponential search for an upper bound.
	hi := 1.0
	for Gain(worst, hi) > target {
		hi *= 2
		if hi > 1e9 {
			return 0, fmt.Errorf("propagation: protection distance exceeds 1e9 m (target gain %g unreachable)", target)
		}
	}
	lo := hi / 2
	for i := 0; i < 80 && hi-lo > 1e-6; i++ {
		mid := (lo + hi) / 2
		if Gain(worst, mid) > target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi, nil
}
