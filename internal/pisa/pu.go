package pisa

import (
	"crypto/rand"
	"fmt"
	"io"
	"math/big"
	"time"

	"pisa/internal/geo"
	"pisa/internal/paillier"
	"pisa/internal/parallel"
	"pisa/internal/watch"
)

// This file is a PU update from both ends: the PU encrypts its offset
// column (eq. 8), the SDC folds it into the encrypted budget (eqs. 9-10).

// PU is a primary user (active TV receiver). Its location is public
// and fixed (§III-D); what it hides is which channel it receives and
// at what signal strength. Updates carry the offset encoding
// W(c) = T(c) - E(c) from §IV-B, which lets the SDC realise the
// budget selection of eq. 4 with pure homomorphic addition — no
// secure integer comparison.
type PU struct {
	id      watch.PUID
	block   geo.BlockID
	eColumn []int64 // public E(:, block)
	group   *paillier.PublicKey
	random  io.Reader
	// codec is the slot layout the PU packs for, and shift is
	// 2^(slot*SlotBits) for its slot = block mod Slots: the PU encrypts
	// W(c)*shift, so the SDC sums its ciphertexts into the packed budget
	// as they arrive.
	codec *paillier.SlotCodec
	shift *big.Int
}

// NewPU creates a primary user at the given block. eColumn is the
// public per-channel maximum-SU-EIRP budget for that block (obtain it
// from SDC.EColumn or any party's own watch.System — it derives from
// public data only).
//
// layout is the deployment's Params: the PU encrypts into its block's
// slot of Params.SlotCodec, and the SDC refuses an update packed for
// another layout. Without it the PU packs Table I's widths
// (DefaultParams) at the group key's width. That default exists only
// because the frozen benchmark calls NewPU without a layout; unfreezing
// the benchmark (ROADMAP item 3) makes the argument required.
func NewPU(random io.Reader, id watch.PUID, block geo.BlockID, eColumn []int64, group *paillier.PublicKey, layout ...Params) (*PU, error) {
	if random == nil {
		random = rand.Reader
	}
	if id == "" {
		return nil, fmt.Errorf("pisa: PU requires an id")
	}
	if len(eColumn) == 0 {
		return nil, fmt.Errorf("pisa: PU requires the public E column")
	}
	if group == nil {
		return nil, fmt.Errorf("pisa: PU requires the group key")
	}
	if block < 0 {
		return nil, fmt.Errorf("pisa: PU block %d invalid", block)
	}
	var p Params
	switch len(layout) {
	case 0:
		p = DefaultParams(watch.Params{})
		p.PaillierBits = group.Bits()
	case 1:
		p = layout[0]
	default:
		return nil, fmt.Errorf("pisa: PU takes one layout, got %d", len(layout))
	}
	codec, err := p.SlotCodec()
	if err != nil {
		return nil, err
	}
	if err := codec.CheckKey(group); err != nil {
		return nil, fmt.Errorf("pisa: PU layout: %w", err)
	}
	col := append([]int64(nil), eColumn...)
	return &PU{
		id:      id,
		block:   block,
		eColumn: col,
		group:   group,
		// Update encryption can fan out, so the source is
		// shared-reader wrapped up front (crypto/rand passes through).
		random: paillier.SharedReader(random),
		codec:  codec,
		shift:  codec.ShiftScalar(int(block) % codec.Slots()),
	}, nil
}

// ID returns the PU identifier.
func (p *PU) ID() watch.PUID { return p.id }

// Tune produces the encrypted update for switching to (or turning on)
// the given channel with the measured mean TV signal strength
// (Figure 4 steps 1-3): C ciphertexts, W(channel) = signal - E,
// zeros elsewhere.
func (p *PU) Tune(channel int, signalUnits int64) (*PUUpdate, error) {
	if channel < 0 || channel >= len(p.eColumn) {
		return nil, fmt.Errorf("pisa: channel %d outside [0, %d)", channel, len(p.eColumn))
	}
	if signalUnits <= 0 {
		return nil, fmt.Errorf("pisa: signal must be positive, got %d", signalUnits)
	}
	return p.update(func(c int) int64 {
		if c == channel {
			return signalUnits - p.eColumn[c]
		}
		return 0
	})
}

// Off produces the all-zero encrypted update for a receiver that
// switched off: the SDC's budget column falls back to E everywhere.
func (p *PU) Off() (*PUUpdate, error) {
	return p.update(func(int) int64 { return 0 })
}

// update encrypts the W column defined by w, each value already in the
// PU's slot (W(c)*2^(slot*SlotBits)), as one batch over parallel.Auto()
// workers.
func (p *PU) update(w func(c int) int64) (*PUUpdate, error) {
	vs := make([]*big.Int, len(p.eColumn))
	for c := range vs {
		vs[c] = new(big.Int).Mul(big.NewInt(w(c)), p.shift)
	}
	cts, err := p.group.EncryptBatch(p.random, vs, parallel.Auto())
	if err != nil {
		return nil, fmt.Errorf("pisa: encrypt W: %w", err)
	}
	return &PUUpdate{PUID: p.id, Block: p.block, Slots: p.codec.Slots(), SlotBits: p.codec.SlotBits(), Cts: cts}, nil
}

// HandlePUUpdate ingests a channel-reception update (Figure 4 steps
// 4): it stores the PU's latest W~ column together with the encrypted
// budget column N~(:, b) = E~(:, b) (+) sum of W~ columns at b (eqs.
// 9-10) of its slot group, whose E slots are re-encrypted fresh, matching
// the paper's update cost (about C encryptions plus C homomorphic
// additions, about 2.6 s at paper scale) in every slot.
//
// Under the group's update lock, the column is computed outside s.mu on
// the worker pool, installed with the update under s.mu (so a snapshot
// holds both or neither), then journaled, so the log orders a group's
// updates like their installs and an acknowledged update is durable. A
// journal error puts the previous update and column back (DESIGN.md §7).
func (s *SDC) HandlePUUpdate(u *PUUpdate) (err error) {
	m := metrics()
	start := time.Now()
	defer func() {
		m.puUpdate.ObserveSince(start)
		if err != nil {
			m.puUpdateErrors.Inc()
		}
	}()
	if err := s.validateUpdate(u); err != nil {
		return err
	}
	g := int(u.Block) / s.codec.Slots()
	s.updateMu[g].Lock()
	defer s.updateMu[g].Unlock()
	s.mu.Lock()
	updates := append(s.groupUpdatesLocked(g, u.PUID), u)
	s.mu.Unlock()
	col, err := s.groupColumn(g, updates)
	if err != nil {
		return err
	}

	s.mu.Lock()
	// Checked at the install, not before: a first update from this PU at
	// a block of another group may have installed since.
	prev := s.puUpdates[u.PUID] // nil when the PU had no update before
	if prev != nil && prev.Block != u.Block {
		s.mu.Unlock()
		return fmt.Errorf("pisa: PU %q registered at block %d, update claims %d (TV receiver locations are fixed)",
			u.PUID, prev.Block, u.Block)
	}
	prevCol, err := s.swapGroupLocked(g, col)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	s.puUpdates[u.PUID] = u
	journal := s.journal
	s.mu.Unlock()
	if journal == nil {
		return nil
	}
	if err := journal(u); err != nil {
		// The group's update lock excludes every other writer of the PU's
		// entry and the group's column, so this undo is exact; its swap
		// cannot fail where the install's did not.
		s.mu.Lock()
		if prev != nil {
			s.puUpdates[u.PUID] = prev
		} else {
			delete(s.puUpdates, u.PUID)
		}
		_, _ = s.swapGroupLocked(g, prevCol)
		s.mu.Unlock()
		return fmt.Errorf("pisa: journal PU update: %w", err)
	}
	return nil
}

// validateUpdate performs the stateless admission checks shared by the
// live update path and recovery replay.
func (s *SDC) validateUpdate(u *PUUpdate) error {
	if u == nil {
		return fmt.Errorf("pisa: nil PU update")
	}
	if u.PUID == "" || len(u.PUID) > maxIDLen {
		return fmt.Errorf("pisa: PU update id of %d bytes outside [1, %d]", len(u.PUID), maxIDLen)
	}
	if !s.params.Watch.Grid.Valid(u.Block) {
		return fmt.Errorf("pisa: PU update block %d invalid", u.Block)
	}
	if len(u.Cts) != s.params.Watch.Channels {
		return fmt.Errorf("pisa: PU update has %d ciphertexts, want C=%d",
			len(u.Cts), s.params.Watch.Channels)
	}
	if u.Slots != s.codec.Slots() || u.SlotBits != s.codec.SlotBits() {
		return fmt.Errorf("pisa: PU update from %q is packed for %d slots of %d bits, the deployment packs %d slots of %d bits: build the PU with the deployment's Params (pisa.NewPU's layout argument)",
			u.PUID, u.Slots, u.SlotBits, s.codec.Slots(), s.codec.SlotBits())
	}
	// A ciphertext outside (0, n^2) is refused here, before any lock is
	// taken, not by the column computation's addition.
	n2 := s.group.NSquared()
	for c, ct := range u.Cts {
		if ct == nil || ct.C == nil {
			return fmt.Errorf("pisa: PU update ciphertext %d is nil", c)
		}
		if ct.C.Sign() <= 0 || ct.C.Cmp(n2) >= 0 {
			return fmt.Errorf("pisa: PU update ciphertext %d outside (0, n^2) of the group key", c)
		}
	}
	return nil
}

// SetUpdateJournal attaches (or replaces) the write-ahead hook after
// construction. A durable daemon arms it only after recovery replay,
// so replayed updates are not appended to the log a second time.
func (s *SDC) SetUpdateJournal(fn func(*PUUpdate) error) {
	s.mu.Lock()
	s.journal = fn
	s.mu.Unlock()
}

// groupUpdatesLocked lists the stored updates at the blocks of slot
// group g, but the one of PU except. The caller holds s.mu.
func (s *SDC) groupUpdatesLocked(g int, except watch.PUID) []*PUUpdate {
	k := s.codec.Slots()
	var updates []*PUUpdate
	for _, u := range s.puUpdates {
		if int(u.Block)/k == g && u.PUID != except {
			updates = append(updates, u)
		}
	}
	return updates
}

// groupColumn computes the column of slot group g over the channel rows
// this instance owns — a fresh packed encryption of the group's E slots
// (padding packs 1, the always-positive indicator) plus the W~ columns of
// updates, which their PUs encrypted into their slots (PU.Tune) — on the
// worker pool, for HandlePUUpdate and RestoreSDC alike.
func (s *SDC) groupColumn(g int, updates []*PUUpdate) (col []*paillier.Ciphertext, err error) {
	m := metrics()
	start := time.Now()
	defer func() {
		if err != nil {
			m.colRebuildErr.ObserveSince(start)
		} else {
			m.colRebuildOK.ObserveSince(start)
		}
	}()
	k := s.codec.Slots()
	lo, hi := g*k, (g+1)*k
	if blocks := s.params.Watch.Grid.Blocks(); hi > blocks {
		hi = blocks
	}
	vals := make([][]*big.Int, s.chanHi-s.chanLo)
	for j := range vals {
		vals[j] = make([]*big.Int, k)
		for i := range vals[j] {
			if b := lo + i; b < hi {
				ev, err := s.ePlain.At(s.chanLo+j, b)
				if err != nil {
					return nil, err
				}
				vals[j][i] = big.NewInt(ev)
			} else {
				vals[j][i] = big.NewInt(1)
			}
		}
	}
	if col, err = s.group.PackEncryptBatch(s.random, s.codec, vals, parallel.Auto()); err != nil {
		return nil, fmt.Errorf("pisa: pack-encrypt E(group %d): %w", g, err)
	}
	for j := range col {
		for _, u := range updates {
			if col[j], err = s.group.Add(col[j], u.Cts[s.chanLo+j]); err != nil {
				return nil, fmt.Errorf("pisa: fold update from %q: %w", u.PUID, err)
			}
		}
	}
	return col, nil
}

// swapGroupLocked installs col as the column of slot group g over the
// owned channel rows and returns the column it replaced. New ciphertexts
// make the group's cached cells stale; swapping the old ones back makes
// them fresh again. The rows are in range, so only a g out of range
// fails, at the first row, before any write. The caller holds s.mu.
func (s *SDC) swapGroupLocked(g int, col []*paillier.Ciphertext) ([]*paillier.Ciphertext, error) {
	old := make([]*paillier.Ciphertext, len(col))
	for j, ct := range col {
		var err error
		if old[j], err = s.nPack.GroupAt(s.chanLo+j, g); err == nil {
			err = s.nPack.SetGroup(s.chanLo+j, g, ct)
		}
		if err != nil {
			return nil, err
		}
	}
	return old, nil
}
