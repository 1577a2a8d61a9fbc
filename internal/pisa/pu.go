package pisa

import (
	"crypto/rand"
	"fmt"
	"io"
	"math/big"

	"pisa/internal/geo"
	"pisa/internal/paillier"
	"pisa/internal/parallel"
	"pisa/internal/watch"
)

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
