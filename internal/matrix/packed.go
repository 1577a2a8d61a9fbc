package matrix

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/big"

	"pisa/internal/paillier"
)

// Packed is a C x B matrix of Paillier ciphertexts under a single
// public key, slot-packed: along the block axis, every run of k
// consecutive blocks shares one ciphertext, with block b living in
// slot b mod k of group b / k (k = codec.Slots()). The matrix therefore
// holds C x ceil(B/k) ciphertexts instead of C x B — the ~k-fold shrink
// of request, WAL and snapshot sizes that packing is for.
//
// The trailing group of a row usually has padding slots (blocks is
// rarely a multiple of k); their plaintext value is chosen by the
// producer (PackEncryptInts' pad argument) so that the protocol's
// slot-wise operations keep padding inert — PISA packs 1 into budget
// padding (always-positive indicator) and 0 into request padding.
//
// Group entries may be nil for "not shipped" (the partial-disclosure
// request of §VI-A sends only a subset of columns, at group
// granularity).
type Packed struct {
	channels, blocks int
	codec            *paillier.SlotCodec
	groups           int // ceil(blocks / codec.Slots())
	key              *paillier.PublicKey
	data             []*paillier.Ciphertext // row-major: data[c*groups + g]
	populated        int                    // non-nil groups, kept incrementally
}

// NewPacked allocates a packed matrix with all groups nil.
func NewPacked(key *paillier.PublicKey, codec *paillier.SlotCodec, channels, blocks int) (*Packed, error) {
	if channels <= 0 || blocks <= 0 {
		return nil, fmt.Errorf("matrix: dimensions must be positive, got %dx%d", channels, blocks)
	}
	if key == nil {
		return nil, fmt.Errorf("matrix: nil public key")
	}
	if codec == nil {
		return nil, fmt.Errorf("matrix: nil slot codec")
	}
	if err := codec.CheckKey(key); err != nil {
		return nil, err
	}
	groups := (blocks + codec.Slots() - 1) / codec.Slots()
	return &Packed{
		channels: channels,
		blocks:   blocks,
		codec:    codec,
		groups:   groups,
		key:      key,
		data:     make([]*paillier.Ciphertext, channels*groups),
	}, nil
}

// Channels returns C.
func (p *Packed) Channels() int { return p.channels }

// Blocks returns B (the logical block count, not the group count).
func (p *Packed) Blocks() int { return p.blocks }

// Slots returns the codec's blocks-per-ciphertext count k.
func (p *Packed) Slots() int { return p.codec.Slots() }

// Codec returns the slot codec.
func (p *Packed) Codec() *paillier.SlotCodec { return p.codec }

// Key returns the public key the groups are encrypted under.
func (p *Packed) Key() *paillier.PublicKey { return p.key }

func (p *Packed) idx(c, g int) (int, error) {
	if c < 0 || c >= p.channels || g < 0 || g >= p.groups {
		return 0, fmt.Errorf("matrix: group index (%d, %d) outside %dx%d", c, g, p.channels, p.groups)
	}
	return c*p.groups + g, nil
}

// GroupAt returns the group ciphertext at (channel, group); nil if
// never populated.
func (p *Packed) GroupAt(c, g int) (*paillier.Ciphertext, error) {
	i, err := p.idx(c, g)
	if err != nil {
		return nil, err
	}
	return p.data[i], nil
}

// SetGroup writes a group ciphertext, maintaining the populated
// counter (nil clears the position).
func (p *Packed) SetGroup(c, g int, ct *paillier.Ciphertext) error {
	i, err := p.idx(c, g)
	if err != nil {
		return err
	}
	switch {
	case p.data[i] == nil && ct != nil:
		p.populated++
	case p.data[i] != nil && ct == nil:
		p.populated--
	}
	p.data[i] = ct
	return nil
}

// Populated returns the number of non-nil groups (O(1)).
func (p *Packed) Populated() int { return p.populated }

// SizeBytes returns the wire size of the populated groups.
func (p *Packed) SizeBytes() int {
	return p.populated * p.key.CiphertextBytes()
}

// Clone returns a copy sharing the (immutable) ciphertext entries.
func (p *Packed) Clone() *Packed {
	out := *p
	out.data = make([]*paillier.Ciphertext, len(p.data))
	copy(out.data, p.data)
	return &out
}

// ForEachGroup calls fn for every populated group in row-major order.
func (p *Packed) ForEachGroup(fn func(c, g int, ct *paillier.Ciphertext) error) error {
	for i, ct := range p.data {
		if ct == nil {
			continue
		}
		if err := fn(i/p.groups, i%p.groups, ct); err != nil {
			return err
		}
	}
	return nil
}

// DecryptPacked decrypts and unpacks every populated group; absent
// groups decode as 0, and padding slots are discarded. Intended for
// tests and state inspection.
func DecryptPacked(sk *paillier.PrivateKey, p *Packed) (*Int, error) {
	out, err := NewInt(p.channels, p.blocks)
	if err != nil {
		return nil, err
	}
	k := p.codec.Slots()
	for i, ct := range p.data {
		if ct == nil {
			continue
		}
		c, g := i/p.groups, i%p.groups
		vals, err := sk.DecryptSlots(p.codec, ct)
		if err != nil {
			return nil, fmt.Errorf("decrypt group (%d, %d): %w", c, g, err)
		}
		for s := 0; s < k; s++ {
			b := g*k + s
			if b >= p.blocks {
				break
			}
			if !vals[s].IsInt64() {
				return nil, fmt.Errorf("decrypt group (%d, %d): slot %d overflows int64", c, g, s)
			}
			out.data[c*p.blocks+b] = vals[s].Int64()
		}
	}
	return out, nil
}

// packedGob is the wire form of Packed: dimensions, codec geometry,
// key modulus, and the populated groups as (index, ciphertext) pairs.
type packedGob struct {
	Channels, Blocks             int
	Slots, SlotBits, PayloadBits int
	KeyN                         *big.Int
	Index                        []int32
	Cts                          []*paillier.Ciphertext
}

// GobEncode implements gob.GobEncoder.
func (p *Packed) GobEncode() ([]byte, error) {
	g := packedGob{
		Channels:    p.channels,
		Blocks:      p.blocks,
		Slots:       p.codec.Slots(),
		SlotBits:    p.codec.SlotBits(),
		PayloadBits: p.codec.PayloadBits(),
		KeyN:        p.key.N,
	}
	for i, ct := range p.data {
		if ct == nil {
			continue
		}
		g.Index = append(g.Index, int32(i))
		g.Cts = append(g.Cts, ct)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&g); err != nil {
		return nil, fmt.Errorf("matrix: encode packed: %w", err)
	}
	return buf.Bytes(), nil
}

// maxGobCells caps the matrix size a decoded message may declare.
// Without it a hostile peer could claim 2^31 x 2^31 dimensions and
// drive the pre-allocation below into an overflowed or multi-terabyte
// make(). Paper-scale deployments are ~100 channels x ~10^4 blocks;
// 1<<26 cells leaves three orders of magnitude of headroom.
const maxGobCells = 1 << 26

// GobDecode implements gob.GobDecoder. It treats the payload as
// untrusted wire input: dimension and geometry caps before any
// allocation sized from the wire, index range checks, and ciphertext
// sanity checks; damage surfaces as an error, never a panic, and the
// receiver is left unmodified on failure.
func (p *Packed) GobDecode(data []byte) error {
	var g packedGob
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&g); err != nil {
		return fmt.Errorf("matrix: decode packed: %w", err)
	}
	if g.Channels <= 0 || g.Blocks <= 0 {
		return fmt.Errorf("matrix: decode packed: invalid dimensions %dx%d", g.Channels, g.Blocks)
	}
	if g.Channels > maxGobCells || g.Blocks > maxGobCells || g.Channels*g.Blocks > maxGobCells {
		return fmt.Errorf("matrix: decode packed: dimensions %dx%d exceed cell cap %d",
			g.Channels, g.Blocks, maxGobCells)
	}
	if g.KeyN == nil || g.KeyN.Sign() <= 0 {
		return fmt.Errorf("matrix: decode packed: missing or invalid key modulus")
	}
	codec, err := paillier.NewSlotCodec(g.Slots, g.SlotBits, g.PayloadBits)
	if err != nil {
		return fmt.Errorf("matrix: decode packed: %w", err)
	}
	fresh, err := NewPacked(&paillier.PublicKey{N: g.KeyN}, codec, g.Channels, g.Blocks)
	if err != nil {
		return fmt.Errorf("matrix: decode packed: %w", err)
	}
	if len(g.Index) != len(g.Cts) {
		return fmt.Errorf("matrix: decode packed: index/ciphertext length mismatch %d vs %d",
			len(g.Index), len(g.Cts))
	}
	if len(g.Cts) > len(fresh.data) {
		return fmt.Errorf("matrix: decode packed: %d entries exceed %d groups",
			len(g.Cts), len(fresh.data))
	}
	maxCtBytes := fresh.key.CiphertextBytes()
	for k, idx := range g.Index {
		if idx < 0 || int(idx) >= len(fresh.data) {
			return fmt.Errorf("matrix: decode packed: group index %d outside [0, %d)", idx, len(fresh.data))
		}
		ct := g.Cts[k]
		if ct == nil || ct.C == nil || ct.C.Sign() <= 0 {
			return fmt.Errorf("matrix: decode packed: entry %d has invalid ciphertext", k)
		}
		if (ct.C.BitLen()+7)/8 > maxCtBytes {
			return fmt.Errorf("matrix: decode packed: entry %d ciphertext exceeds %d bytes", k, maxCtBytes)
		}
		if fresh.data[idx] != nil {
			return fmt.Errorf("matrix: decode packed: duplicate group index %d", idx)
		}
		fresh.data[idx] = ct
		fresh.populated++
	}
	*p = *fresh
	return nil
}
