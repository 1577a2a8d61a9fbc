package matrix

import (
	"fmt"
	"io"
	"math/big"

	"pisa/internal/paillier"
	"pisa/internal/parallel"
)

// Channel-slice views and window-ranged encryption back the sharded
// SDC (DESIGN.md §15): a shard owns the channel rows [lo, hi) of the
// budget matrix, and the router ships each shard only the matching
// rows of an SU request. Slices keep the FULL matrix dimensions —
// the channel axis is an index space every party agrees on, so a
// slice stays shape-compatible with whole-matrix operands and keeps
// the same (channel, block) coordinates; only the populated set
// shrinks. Entries are shared pointers (ciphertexts are immutable).

// checkWindow validates a channel window [lo, hi) against C.
func checkWindow(lo, hi, channels int) error {
	if lo < 0 || hi > channels || lo >= hi {
		return fmt.Errorf("matrix: channel window [%d, %d) outside [0, %d)", lo, hi, channels)
	}
	return nil
}

// ChannelSlice returns a view holding only the group rows [lo, hi):
// same dimensions, codec and key, entries outside the window nil,
// entries inside shared with the receiver.
func (p *Packed) ChannelSlice(lo, hi int) (*Packed, error) {
	if err := checkWindow(lo, hi, p.channels); err != nil {
		return nil, err
	}
	out := *p
	out.data = make([]*paillier.Ciphertext, len(p.data))
	out.populated = 0
	for i := lo * p.groups; i < hi*p.groups; i++ {
		if p.data[i] != nil {
			out.data[i] = p.data[i]
			out.populated++
		}
	}
	return &out, nil
}

// PackEncryptIntsWindow packs and encrypts only the channel rows
// [lo, hi) of m into a full-dimensioned matrix (rows outside the window
// stay nil), with up to workers goroutines — the initial-budget
// encryption of one SDC shard, which owns a channel slice but keeps
// whole-matrix coordinates. Padding slots past the last block encrypt
// pad.
func PackEncryptIntsWindow(random io.Reader, key *paillier.PublicKey, codec *paillier.SlotCodec,
	m *Int, pad int64, lo, hi, workers int) (*Packed, error) {
	if err := checkWindow(lo, hi, m.channels); err != nil {
		return nil, err
	}
	out, err := NewPacked(key, codec, m.channels, m.blocks)
	if err != nil {
		return nil, err
	}
	if workers > 1 {
		random = paillier.SharedReader(random)
	}
	k := codec.Slots()
	base := lo * out.groups
	err = parallel.For(workers, (hi-lo)*out.groups, func(j int) error {
		i := base + j
		c, g := i/out.groups, i%out.groups
		vals := make([]*big.Int, k)
		for s := 0; s < k; s++ {
			b := g*k + s
			if b < m.blocks {
				vals[s] = big.NewInt(m.data[c*m.blocks+b])
			} else {
				vals[s] = big.NewInt(pad)
			}
		}
		ct, err := key.PackEncrypt(random, codec, vals)
		if err != nil {
			return fmt.Errorf("pack-encrypt group (%d, %d): %w", c, g, err)
		}
		out.data[i] = ct
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.populated = (hi - lo) * out.groups
	return out, nil
}
