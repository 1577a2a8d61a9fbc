// Package watch implements the plaintext WATCH dynamic
// spectrum-sharing system (Zhang & Knightly, MobiHoc'15) as described
// in §III-A and §IV-A of the PISA paper. It is both the baseline PISA
// is compared against and the functional oracle PISA's encrypted
// pipeline must agree with.
//
// All signal strengths are carried as scaled integers ("units"):
// Params.UnitsPerMW units per milliwatt, matching the paper's 60-bit
// integer representation (§VI-A, Table I).
package watch

import (
	"fmt"
	"math"

	"pisa/internal/geo"
	"pisa/internal/matrix"
	"pisa/internal/propagation"
)

// PUID identifies a registered primary (TV receiver) user.
type PUID string

// Params configures a WATCH/PISA deployment. The same Params drive
// both the plaintext system here and the encrypted system in
// internal/pisa, so the two compute identical decisions.
type Params struct {
	// Channels is C, the number of quantised TV channels.
	Channels int
	// Grid is the quantised service area (B blocks).
	Grid *geo.Grid
	// UnitsPerMW is the fixed-point scale: integer units per
	// milliwatt. The paper's 60-bit representation corresponds to
	// picowatt-ish granularity; 1e12 is the default.
	UnitsPerMW float64
	// SUMaxEIRPmW is S_max^SU, the regulatory cap on SU EIRP in mW
	// (4 W = 4000 mW for TVWS devices).
	SUMaxEIRPmW float64
	// SMinPUmW is S_sv_min^PU, the minimum usable TV signal in mW.
	SMinPUmW float64
	// DeltaInt is X = round(Delta_TV_SINR + Delta_redn) as the
	// integer plaintext scalar the protocol multiplies by (eq. 6/11).
	DeltaInt int64
	// Secondary is h(.), the SU-to-PU path-loss model (eq. 5).
	Secondary propagation.Model
	// WorstCase is h_max(.), the most optimistic (lowest-loss)
	// propagation over a distance, used to size d^c (eq. 1).
	WorstCase propagation.Model
	// ChannelFreqMHz maps a channel index to its centre frequency.
	// Defaults to US UHF numbering (470 + 6c MHz) when nil.
	ChannelFreqMHz func(c int) float64
	// ConservativeContours switches the no-active-PU budget E to the
	// legacy "TV white space" behaviour: blocks inside a TV
	// transmitter's service contour are protected even with no
	// active receiver. Off (false) reproduces WATCH, whose point is
	// precisely that inactive channels are reusable.
	ConservativeContours bool
}

// DeltaFromDB converts protection ratios given in dB to the integer
// scalar X used throughout the protocol (rounded up, conservative).
func DeltaFromDB(sinrDB, rednDB float64) int64 {
	return int64(math.Ceil(propagation.DBToLinear(sinrDB) + propagation.DBToLinear(rednDB)))
}

// Validate reports configuration errors.
func (p Params) Validate() error {
	switch {
	case p.Channels <= 0:
		return fmt.Errorf("watch: Channels must be positive, got %d", p.Channels)
	case p.Grid == nil:
		return fmt.Errorf("watch: Grid is required")
	case p.UnitsPerMW <= 0:
		return fmt.Errorf("watch: UnitsPerMW must be positive, got %g", p.UnitsPerMW)
	case p.SUMaxEIRPmW <= 0:
		return fmt.Errorf("watch: SUMaxEIRPmW must be positive, got %g", p.SUMaxEIRPmW)
	case p.SMinPUmW <= 0:
		return fmt.Errorf("watch: SMinPUmW must be positive, got %g", p.SMinPUmW)
	case p.DeltaInt <= 0:
		return fmt.Errorf("watch: DeltaInt must be positive, got %d", p.DeltaInt)
	case p.Secondary == nil || p.WorstCase == nil:
		return fmt.Errorf("watch: Secondary and WorstCase models are required")
	}
	return nil
}

// Quantize converts a power in mW to integer units.
func (p Params) Quantize(mw float64) int64 {
	return int64(math.Round(mw * p.UnitsPerMW))
}

// Dequantize converts integer units back to mW.
func (p Params) Dequantize(units int64) float64 {
	return float64(units) / p.UnitsPerMW
}

// freq returns the centre frequency of channel c.
func (p Params) freq(c int) float64 {
	if p.ChannelFreqMHz != nil {
		return p.ChannelFreqMHz(c)
	}
	return 470 + 6*float64(c)
}

// TVTransmitter describes a broadcast tower, public knowledge per
// §III-D.
type TVTransmitter struct {
	// Location is the tower position in the service area.
	Location geo.Point
	// Channel is the broadcast channel index.
	Channel int
	// EIRPmW is the tower's radiated power in mW.
	EIRPmW float64
}

// Registration is a PU's current operating state.
type Registration struct {
	// Block is the (public, registered) receiver location.
	Block geo.BlockID
	// Channel is the channel currently being received, or -1 when
	// the receiver is off.
	Channel int
	// SignalUnits is S_c,i^PU, the mean TV signal strength at the
	// receiver in integer units (the private datum in PISA).
	SignalUnits int64
}

// Request is an SU transmission request.
type Request struct {
	// Block is the SU's location (private in PISA).
	Block geo.BlockID
	// EIRPUnits maps channel -> requested EIRP S_c,j^SU in units.
	// Channels absent from the map are not requested.
	EIRPUnits map[int]int64
}

// Decision is the SDC's verdict on a request.
type Decision struct {
	// Granted is true when every interference budget stays positive.
	Granted bool
	// Violations lists the (channel, block) pairs whose budget was
	// exhausted; empty when Granted.
	Violations []Violation
}

// Violation pinpoints one exceeded interference budget.
type Violation struct {
	Channel int
	Block   geo.BlockID
	// BudgetUnits and InterferenceUnits expose N(c,i) and R(c,i).
	BudgetUnits       int64
	InterferenceUnits int64
}

// Planner holds the public-data precomputation every party can do
// alone: the per-channel protection distances d^c (eq. 1) and the
// F-matrix construction (eq. 5). SUs in PISA carry a Planner, not a
// System — they never see budgets.
type Planner struct {
	params      Params
	protectDist []float64 // d^c per channel (eq. 1)
}

// NewPlanner validates params and solves d^c for every channel. When
// the worst-case model is frequency aware, each channel's distance is
// derived at that channel's own centre frequency (eq. 1 makes d^c
// channel dependent); otherwise the model is used as-is for all
// channels.
func NewPlanner(params Params) (*Planner, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	pl := &Planner{
		params:      params,
		protectDist: make([]float64, params.Channels),
	}
	freqAware, _ := params.WorstCase.(propagation.FrequencyAware)
	for c := 0; c < params.Channels; c++ {
		model := params.WorstCase
		if freqAware != nil {
			model = freqAware.AtFrequency(params.freq(c))
		}
		d, err := propagation.ProtectionDistance(
			model, params.SMinPUmW, params.SUMaxEIRPmW,
			float64(params.DeltaInt), 0)
		if err != nil {
			return nil, fmt.Errorf("protection distance for channel %d: %w", c, err)
		}
		pl.protectDist[c] = d
	}
	return pl, nil
}

// Params returns the deployment configuration.
func (pl *Planner) Params() Params { return pl.params }

// ProtectionDistance returns d^c for channel c.
func (pl *Planner) ProtectionDistance(c int) (float64, error) {
	if c < 0 || c >= pl.params.Channels {
		return 0, fmt.Errorf("watch: channel %d outside [0, %d)", c, pl.params.Channels)
	}
	return pl.protectDist[c], nil
}

// System is the plaintext WATCH SDC state.
type System struct {
	planner      *Planner
	params       Params
	transmitters []TVTransmitter
	e            *matrix.Int // E: budget with no active PU (eq. 4 else-branch)
	tPrime       *matrix.Int // T': aggregated active-PU signals (eq. 3)
	n            *matrix.Int // N: current interference budgets (eq. 4)
	pus          map[PUID]Registration
}

// NewSystem initialises the SDC: precomputes the E matrix and the
// per-channel protection distances d^c (§IV-A1), and sets N = E.
func NewSystem(params Params, transmitters []TVTransmitter) (*System, error) {
	pl, err := NewPlanner(params)
	if err != nil {
		return nil, err
	}
	s := &System{
		planner:      pl,
		params:       params,
		transmitters: append([]TVTransmitter(nil), transmitters...),
		pus:          make(map[PUID]Registration),
	}
	if s.e, err = s.computeE(); err != nil {
		return nil, fmt.Errorf("compute E matrix: %w", err)
	}
	if s.tPrime, err = matrix.NewInt(params.Channels, params.Grid.Blocks()); err != nil {
		return nil, err
	}
	s.n = s.e.Clone()
	return s, nil
}

// Planner exposes the public-data precomputation of this system.
func (s *System) Planner() *Planner { return s.planner }

// computeE builds the no-active-PU budget matrix E_S(c, b): the
// interference budget that lets any SU transmit at S_max^SU (WATCH
// semantics), optionally tightened inside TV service contours
// (legacy TVWS semantics).
func (s *System) computeE() (*matrix.Int, error) {
	p := &s.params
	e, err := matrix.NewInt(p.Channels, p.Grid.Blocks())
	if err != nil {
		return nil, err
	}
	// A max-power SU co-located with the budget point causes at most
	// S_max * h(d_min) * X interference; the extra X + 1 absorbs
	// fixed-point rounding in F so that exactly-S_max passes the
	// strict I > 0 test.
	permissive := p.Quantize(p.SUMaxEIRPmW*propagation.Gain(p.Secondary, p.Grid.BlockSize()/2))*p.DeltaInt + p.DeltaInt + 1
	conservative := p.Quantize(p.SMinPUmW)
	for c := 0; c < p.Channels; c++ {
		for b := 0; b < p.Grid.Blocks(); b++ {
			budget := permissive
			if p.ConservativeContours && s.insideContour(c, geo.BlockID(b)) {
				budget = conservative
			}
			if err := e.Set(c, b, budget); err != nil {
				return nil, err
			}
		}
	}
	return e, nil
}

// insideContour reports whether block b receives at least S_min from
// some transmitter on channel c (i.e. lies inside a service contour).
func (s *System) insideContour(c int, b geo.BlockID) bool {
	center, err := s.params.Grid.Center(b)
	if err != nil {
		return false
	}
	for _, tx := range s.transmitters {
		if tx.Channel != c {
			continue
		}
		d := tx.Location.Distance(center)
		rx := tx.EIRPmW * propagation.Gain(s.params.WorstCase, d)
		if rx >= s.params.SMinPUmW {
			return true
		}
	}
	return false
}

// Params returns a copy of the system configuration.
func (s *System) Params() Params { return s.params }

// EMatrix returns a copy of the precomputed E matrix.
func (s *System) EMatrix() *matrix.Int { return s.e.Clone() }

// BudgetMatrix returns a copy of the current interference budget N.
func (s *System) BudgetMatrix() *matrix.Int { return s.n.Clone() }

// SignalAt predicts the mean TV signal strength in units at block b on
// channel c from the strongest registered transmitter, the quantity a
// PU reports as S_c,i^PU. Returns 0 when no transmitter serves (c, b).
func (s *System) SignalAt(c int, b geo.BlockID) (int64, error) {
	center, err := s.params.Grid.Center(b)
	if err != nil {
		return 0, err
	}
	best := 0.0
	for _, tx := range s.transmitters {
		if tx.Channel != c {
			continue
		}
		d := tx.Location.Distance(center)
		if rx := tx.EIRPmW * propagation.Gain(s.params.WorstCase, d); rx > best {
			best = rx
		}
	}
	return s.params.Quantize(best), nil
}

// UpdatePU registers, re-tunes or switches off a PU and rebuilds T'
// and N (eqs. 3-4). A Registration with Channel < 0 removes the PU.
//
// At most one active PU may occupy a given (channel, block) cell —
// the paper's simplifying assumption (§IV-A2); with 10 m blocks,
// co-located receivers on the same channel are registered at adjacent
// blocks.
func (s *System) UpdatePU(id PUID, reg Registration) error {
	if reg.Channel >= s.params.Channels {
		return fmt.Errorf("watch: channel %d outside [0, %d)", reg.Channel, s.params.Channels)
	}
	if reg.Channel >= 0 {
		if !s.params.Grid.Valid(reg.Block) {
			return fmt.Errorf("watch: block %d invalid", reg.Block)
		}
		if reg.SignalUnits <= 0 {
			return fmt.Errorf("watch: PU signal must be positive, got %d", reg.SignalUnits)
		}
		for otherID, other := range s.pus {
			if otherID != id && other.Channel == reg.Channel && other.Block == reg.Block {
				return fmt.Errorf("watch: PU %q already active on channel %d in block %d",
					otherID, reg.Channel, reg.Block)
			}
		}
		s.pus[id] = reg
	} else {
		delete(s.pus, id)
	}
	return s.rebuild()
}

// rebuild recomputes T' from the registry and re-derives N.
func (s *System) rebuild() error {
	t, err := matrix.NewInt(s.params.Channels, s.params.Grid.Blocks())
	if err != nil {
		return err
	}
	for _, reg := range s.pus {
		cur, err := t.At(reg.Channel, int(reg.Block))
		if err != nil {
			return err
		}
		if err := t.Set(reg.Channel, int(reg.Block), cur+reg.SignalUnits); err != nil {
			return err
		}
	}
	s.tPrime = t
	n := s.e.Clone()
	err = t.ForEach(func(c, b int, v int64) error {
		if v != 0 {
			return n.Set(c, b, v)
		}
		return nil
	})
	if err != nil {
		return err
	}
	s.n = n
	return nil
}

// ActivePUs returns the number of registered (on) PUs.
func (s *System) ActivePUs() int { return len(s.pus) }

// ComputeF builds the SU-side matrix F_j(c, i) = S_c,j^SU * h(d_ij)
// (eq. 5) in integer units, populated only for channels the SU
// requests and blocks within d^c of the SU. This is exactly the
// matrix an SU encrypts in PISA.
func (pl *Planner) ComputeF(req Request) (*matrix.Int, error) {
	p := pl.params
	if !p.Grid.Valid(req.Block) {
		return nil, fmt.Errorf("watch: SU block %d invalid", req.Block)
	}
	f, err := matrix.NewInt(p.Channels, p.Grid.Blocks())
	if err != nil {
		return nil, err
	}
	for c, eirp := range req.EIRPUnits {
		if c < 0 || c >= p.Channels {
			return nil, fmt.Errorf("watch: requested channel %d outside [0, %d)", c, p.Channels)
		}
		if eirp < 0 {
			return nil, fmt.Errorf("watch: negative EIRP %d on channel %d", eirp, c)
		}
		if eirp == 0 {
			continue
		}
		if limit := p.Quantize(p.SUMaxEIRPmW); eirp > limit {
			return nil, fmt.Errorf("watch: EIRP %d on channel %d exceeds regulatory cap %d", eirp, c, limit)
		}
		within, err := p.Grid.BlocksWithin(req.Block, pl.protectDist[c])
		if err != nil {
			return nil, err
		}
		for _, i := range within {
			d, err := p.Grid.Distance(i, req.Block)
			if err != nil {
				return nil, err
			}
			gain := propagation.Gain(p.Secondary, d)
			v := int64(math.Round(float64(eirp) * gain))
			if err := f.Set(c, int(i), v); err != nil {
				return nil, err
			}
		}
	}
	return f, nil
}

// ComputeF delegates to the system's planner.
func (s *System) ComputeF(req Request) (*matrix.Int, error) {
	return s.planner.ComputeF(req)
}

// Evaluate decides an SU request in plaintext (§IV-A3): computes
// R = F * X (eq. 6), I = N - R (eq. 7) and grants iff every populated
// budget stays strictly positive.
func (s *System) Evaluate(req Request) (Decision, error) {
	f, err := s.ComputeF(req)
	if err != nil {
		return Decision{}, err
	}
	return s.EvaluateF(f)
}

// EvaluateF decides from a precomputed F matrix; split out so tests
// and the PISA equivalence oracle can inject the exact matrix the SU
// encrypted.
func (s *System) EvaluateF(f *matrix.Int) (Decision, error) {
	var dec Decision
	dec.Granted = true
	err := f.ForEach(func(c, b int, fv int64) error {
		if fv == 0 {
			return nil
		}
		r := fv * s.params.DeltaInt
		budget, err := s.n.At(c, b)
		if err != nil {
			return err
		}
		if budget-r <= 0 {
			dec.Granted = false
			dec.Violations = append(dec.Violations, Violation{
				Channel:           c,
				Block:             geo.BlockID(b),
				BudgetUnits:       budget,
				InterferenceUnits: r,
			})
		}
		return nil
	})
	if err != nil {
		return Decision{}, err
	}
	return dec, nil
}

// MaxEIRPUnits returns the largest EIRP (in units) an SU at block j
// could be granted on channel c given current budgets — the quantity
// WATCH publishes per block (eq. 2). Useful for capacity studies and
// the TVWS-vs-WATCH comparison example.
func (s *System) MaxEIRPUnits(c int, j geo.BlockID) (int64, error) {
	p := &s.params
	if c < 0 || c >= p.Channels {
		return 0, fmt.Errorf("watch: channel %d outside [0, %d)", c, p.Channels)
	}
	if !p.Grid.Valid(j) {
		return 0, fmt.Errorf("watch: block %d invalid", j)
	}
	within, err := p.Grid.BlocksWithin(j, s.planner.protectDist[c])
	if err != nil {
		return 0, err
	}
	limit := p.Quantize(p.SUMaxEIRPmW)
	for _, i := range within {
		d, err := p.Grid.Distance(i, j)
		if err != nil {
			return 0, err
		}
		gain := propagation.Gain(p.Secondary, d)
		budget, err := s.n.At(c, int(i))
		if err != nil {
			return 0, err
		}
		// Largest s whose quantised interference stays under the
		// budget: the admission test computes F = round(s*gain) and
		// requires F*X <= budget-1, so bound F first and then s
		// conservatively (s*gain <= maxF guarantees round(s*gain)
		// <= maxF).
		maxF := (budget - 1) / p.DeltaInt
		if maxF < 0 {
			maxF = 0
		}
		allowed := int64(math.Floor(float64(maxF) / gain))
		if allowed < limit {
			limit = allowed
		}
	}
	if limit < 0 {
		limit = 0
	}
	return limit, nil
}
