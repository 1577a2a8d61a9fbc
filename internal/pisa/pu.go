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
}

// NewPU creates a primary user at the given block. eColumn is the
// public per-channel maximum-SU-EIRP budget for that block (obtain it
// from SDC.EColumn or any party's own watch.System — it derives from
// public data only).
func NewPU(random io.Reader, id watch.PUID, block geo.BlockID, eColumn []int64, group *paillier.PublicKey) (*PU, error) {
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
	col := append([]int64(nil), eColumn...)
	return &PU{
		id:      id,
		block:   block,
		eColumn: col,
		group:   group,
		// Update encryption can fan out, so the source is
		// shared-reader wrapped up front (crypto/rand passes through).
		random: paillier.SharedReader(random),
	}, nil
}

// ID returns the PU identifier.
func (p *PU) ID() watch.PUID { return p.id }

// Block returns the PU's registered location.
func (p *PU) Block() geo.BlockID { return p.block }

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

// update encrypts the W column defined by w over parallel.Auto()
// workers.
func (p *PU) update(w func(c int) int64) (*PUUpdate, error) {
	cts := make([]*paillier.Ciphertext, len(p.eColumn))
	err := parallel.For(parallel.Auto(), len(cts), func(c int) error {
		ct, err := p.group.Encrypt(p.random, big.NewInt(w(c)))
		if err != nil {
			return fmt.Errorf("pisa: encrypt W(%d): %w", c, err)
		}
		cts[c] = ct
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &PUUpdate{PUID: p.id, Block: p.block, Cts: cts}, nil
}

// storedUpdate is a PU's latest accepted update together with the memo
// of its slot-shifted ciphertexts. A packed rebuild folds the update
// into its group as Cts[c]^(2^(slot*W)) — one full-width exponentiation
// per owned channel — and that value depends on nothing but the update
// and its block, so it is computed by the first rebuild pass that folds
// the update and reused by every later rebuild of the group (another
// PU of the group changing). The memo lives and dies with the
// stored update: replacing the update stores a new one without a memo,
// a journal rollback re-installs the previous one with its own, and a
// restored SDC starts without any.
type storedUpdate struct {
	*PUUpdate
	// shifted[j] is Cts[chanLo+j] shifted to the block's slot; nil until
	// first folded. Guarded by SDC.mu.
	shifted []*paillier.Ciphertext
}

// HandlePUUpdate ingests a channel-reception update (Figure 4 steps
// 4): stores the PU's latest W~ column and rebuilds the encrypted
// budget column N~(:, b) = E~(:, b) (+) sum of W~ columns at b
// (eqs. 9-10). The E column is re-encrypted fresh on every rebuild,
// matching the paper's measured update cost (about C encryptions plus
// C homomorphic additions, about 2.6 s at paper scale). The
// encryptions and folds run outside the state lock on the worker
// pool, so updates overlap with concurrent SU requests.
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
	stored := &storedUpdate{PUUpdate: u}
	s.mu.Lock()
	prev := s.puUpdates[u.PUID] // nil when the PU had no update before
	if prev != nil && prev.Block != u.Block {
		s.mu.Unlock()
		return fmt.Errorf("pisa: PU %q registered at block %d, update claims %d (TV receiver locations are fixed)",
			u.PUID, prev.Block, u.Block)
	}
	s.puUpdates[u.PUID] = stored
	g := int(u.Block) / s.codec.Slots()
	s.groupVer[g]++
	journal := s.journal
	s.mu.Unlock()
	// The WAL append runs outside the lock-shrunk critical section so
	// durable deployments keep the update/request concurrency. The
	// update is acknowledged only after it is journaled; on a journal
	// error the registration is rolled back and the PU sees a failure,
	// so it re-sends (idempotent). Two concurrent updates from the
	// *same* PU may reach the log in the opposite of their registration
	// order — a sequential PU client never does that, and cross-PU
	// interleavings are independent.
	if journal != nil {
		if err := journal(u); err != nil {
			if rerr := s.unregisterUpdate(stored, prev); rerr != nil {
				return fmt.Errorf("pisa: journal PU update: %w (rollback rebuild also failed: %v)", err, rerr)
			}
			return fmt.Errorf("pisa: journal PU update: %w", err)
		}
	}
	return s.rebuildGroup(g)
}

// unregisterUpdate reverts a registration whose WAL append failed, so
// in-memory state never runs ahead of the log: the previous update (or
// absence) is restored and the group is rebuilt in case a concurrent
// rebuild already folded the rejected ciphertexts in. A newer update
// from the same PU that registered meanwhile is left in place — its own
// journal/rebuild path governs it.
func (s *SDC) unregisterUpdate(u, prev *storedUpdate) error {
	s.mu.Lock()
	if s.puUpdates[u.PUID] != u {
		s.mu.Unlock()
		return nil
	}
	if prev != nil {
		s.puUpdates[u.PUID] = prev
	} else {
		delete(s.puUpdates, u.PUID)
	}
	g := int(u.Block) / s.codec.Slots()
	s.groupVer[g]++
	s.mu.Unlock()
	return s.rebuildGroup(g)
}

// validateUpdate performs the stateless admission checks shared by the
// live update path and recovery replay.
func (s *SDC) validateUpdate(u *PUUpdate) error {
	if u == nil {
		return fmt.Errorf("pisa: nil PU update")
	}
	if u.PUID == "" {
		return fmt.Errorf("pisa: PU update missing id")
	}
	if !s.params.Watch.Grid.Valid(u.Block) {
		return fmt.Errorf("pisa: PU update block %d invalid", u.Block)
	}
	if len(u.Cts) != s.params.Watch.Channels {
		return fmt.Errorf("pisa: PU update has %d ciphertexts, want C=%d",
			len(u.Cts), s.params.Watch.Channels)
	}
	for c, ct := range u.Cts {
		if ct == nil || ct.C == nil {
			return fmt.Errorf("pisa: PU update ciphertext %d is nil", c)
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

// rebuildGroup recomputes the whole column of slot group g — a fresh
// packed encryption of the group's E slots (padding packs 1, the
// always-positive indicator) with every stored W~ column at any block
// of the group folded in at its slot via the shift scalar 2^(slot*W).
// Only the snapshot and the write-back hold s.mu; the encryptions and
// homomorphic folds run on the worker pool, over the channel rows this
// instance owns. The shifted columns are memoised per stored update
// (storedUpdate), so a pass exponentiates only for updates no earlier
// pass has folded — normally the one that just arrived. If a concurrent
// update registered at any block of the group while the pass computed
// (detected via the group's version), the stale column is discarded and
// recomputed from a fresh snapshot. The write-back installs new
// ciphertexts, which is what makes the group's cached cells stale.
func (s *SDC) rebuildGroup(g int) error {
	m := metrics()
	k := s.codec.Slots()
	lo, hi := g*k, (g+1)*k
	if blocks := s.params.Watch.Grid.Blocks(); hi > blocks {
		hi = blocks
	}
	for {
		passStart := time.Now()
		s.mu.Lock()
		ver := s.groupVer[g]
		var updates []*storedUpdate
		var shifted [][]*paillier.Ciphertext // index-aligned with updates
		for _, u := range s.puUpdates {
			if int(u.Block) >= lo && int(u.Block) < hi {
				updates = append(updates, u)
				shifted = append(shifted, u.shifted)
			}
		}
		s.mu.Unlock()

		for i, u := range updates {
			if shifted[i] != nil {
				continue
			}
			cts, err := s.shiftUpdate(u.PUUpdate, int(u.Block)-lo)
			if err != nil {
				m.colRebuildErr.ObserveSince(passStart)
				return err
			}
			shifted[i] = cts
			s.mu.Lock()
			u.shifted = cts
			s.mu.Unlock()
		}

		col := make([]*paillier.Ciphertext, s.chanHi-s.chanLo)
		err := parallel.For(parallel.Auto(), len(col), func(j int) error {
			c := s.chanLo + j
			vals := make([]*big.Int, k)
			for j := range vals {
				if b := lo + j; b < hi {
					ev, err := s.ePlain.At(c, b)
					if err != nil {
						return err
					}
					vals[j] = big.NewInt(ev)
				} else {
					vals[j] = big.NewInt(1)
				}
			}
			acc, err := s.group.PackEncrypt(s.random, s.codec, vals)
			if err != nil {
				return fmt.Errorf("pisa: pack-encrypt E(%d, group %d): %w", c, g, err)
			}
			for i, u := range updates {
				if acc, err = s.group.Add(acc, shifted[i][j]); err != nil {
					return fmt.Errorf("pisa: fold update from %q: %w", u.PUID, err)
				}
			}
			col[j] = acc
			return nil
		})
		if err != nil {
			m.colRebuildErr.ObserveSince(passStart)
			return err
		}

		s.mu.Lock()
		if s.groupVer[g] != ver {
			s.mu.Unlock()
			m.colRebuildStale.ObserveSince(passStart)
			m.colRetries.Inc()
			continue
		}
		for j, ct := range col {
			if err := s.nPack.SetGroup(s.chanLo+j, g, ct); err != nil {
				s.mu.Unlock()
				m.colRebuildErr.ObserveSince(passStart)
				return err
			}
		}
		s.mu.Unlock()
		m.colRebuildOK.ObserveSince(passStart)
		return nil
	}
}

// shiftUpdate moves a PU update's owned channel columns into the given
// slot of their packed group: Cts[c]^(2^(slot*W)), one full-width
// exponentiation per channel (slot 0 needs none). Pure function of its
// inputs; the caller memoises the result on the stored update.
func (s *SDC) shiftUpdate(u *PUUpdate, slot int) ([]*paillier.Ciphertext, error) {
	if slot == 0 {
		return u.Cts[s.chanLo:s.chanHi], nil
	}
	defer metrics().updateShift.ObserveSince(time.Now())
	scalar := s.codec.ShiftScalar(slot)
	out := make([]*paillier.Ciphertext, s.chanHi-s.chanLo)
	err := parallel.For(parallel.Auto(), len(out), func(j int) error {
		ct, err := s.group.ScalarMul(scalar, u.Cts[s.chanLo+j])
		if err != nil {
			return fmt.Errorf("pisa: shift update from %q: %w", u.PUID, err)
		}
		out[j] = ct
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
