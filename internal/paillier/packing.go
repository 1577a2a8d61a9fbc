// Ciphertext packing: many small signed values share one Paillier
// plaintext, slashing ciphertext count (and hence wire size and
// per-cell exponentiations) by the slot count k.
//
// Layout. The plaintext integer is split into k fixed-width slots of W
// bits each, slot j occupying bits [j*W, (j+1)*W):
//
//	P = sum_j v_j * 2^(j*W)
//
// with each v_j a signed value. A negative v_j borrows from the slot
// above, so slots are not independently recoverable from the raw two's
// complement-ish representation; Unpack first adds a per-slot bias of
// 2^(W-1), which makes every biased slot non-negative and restores
// independence:
//
//	P + sum_j 2^(W-1)*2^(j*W)  =  sum_j (v_j + 2^(W-1)) * 2^(j*W)
//
// as long as every v_j stays inside [-2^(W-1), 2^(W-1)). Slot values
// are then mask-extracted and un-biased.
//
// Guard bits. Each slot reserves payloadBits for the value as packed,
// one bit for the bias/sign, and guardBits = W-1-payloadBits of
// headroom for homomorphic growth: additions and scalar
// multiplications performed on the ciphertext enlarge the per-slot
// magnitude, and as long as the accumulated |v_j| stays below 2^(W-1)
// no slot ever carries into its neighbour. PISA sizes W so that the
// whole eq. 11-14 pipeline (W values folded into budgets, times the
// deltaX scalar, times the alpha blinding factor, minus beta) fits:
// W = AlphaBits + PlaintextBits + 2 (see Params.Validate).
//
// Overflow is rejected, never wrapped: Pack refuses inputs outside the
// payload domain, and Unpack refuses a plaintext whose biased form
// exceeds the layout (a carry out of the top slot). Mid-slot
// corruption cannot be detected from the layout alone — a clobbered
// slot is still some value — so callers that know the legal bound pass
// it to UnpackBounded.
package paillier

import (
	"errors"
	"fmt"
	"io"
	"math/big"
)

// Packing errors.
var (
	// ErrSlotOverflow rejects a value outside the slot payload domain
	// at Pack time, or outside the caller-stated bound at
	// UnpackBounded time.
	ErrSlotOverflow = errors.New("paillier: value outside slot payload domain")
	// ErrPackedOverflow rejects a packed plaintext whose biased form
	// does not fit the slot layout: some homomorphic operation carried
	// across a slot boundary (guard bits exhausted).
	ErrPackedOverflow = errors.New("paillier: packed plaintext outside slot layout (carry across slot boundary)")
)

// Codec geometry caps: generous bounds that keep a hostile geometry
// from allocating absurd integers while never limiting real keys
// (2^20 total bits is a 1M-bit plaintext).
const (
	maxCodecSlots     = 1 << 16
	maxCodecTotalBits = 1 << 20
)

// SlotCodec packs k signed values into one plaintext integer. The
// codec is immutable after construction and safe for concurrent use.
type SlotCodec struct {
	slots       int
	slotBits    int
	payloadBits int

	bias    *big.Int // 2^(slotBits-1): per-slot centring offset
	biasAll *big.Int // sum_j bias << (j*slotBits)
	payMax  *big.Int // 2^payloadBits: open payload bound
	mask    *big.Int // 2^slotBits - 1
	total   *big.Int // 2^(slots*slotBits): open bound on the biased form
}

// NewSlotCodec builds a codec with the given slot count, slot width in
// bits, and payload width in bits. Each slot holds payloadBits value
// bits, slotBits-1-payloadBits guard bits for homomorphic growth, and
// one bias bit; payloadBits must leave at least one guard bit.
func NewSlotCodec(slots, slotBits, payloadBits int) (*SlotCodec, error) {
	if slots < 1 || slots > maxCodecSlots {
		return nil, fmt.Errorf("paillier: slot count %d outside [1, %d]", slots, maxCodecSlots)
	}
	if payloadBits < 1 {
		return nil, fmt.Errorf("paillier: payload width %d below 1 bit", payloadBits)
	}
	if slotBits < payloadBits+2 {
		return nil, fmt.Errorf("paillier: slot width %d too narrow for %d payload bits (+ sign + guard)", slotBits, payloadBits)
	}
	if total := slots * slotBits; total > maxCodecTotalBits {
		return nil, fmt.Errorf("paillier: packed width %d bits exceeds cap %d", total, maxCodecTotalBits)
	}
	c := &SlotCodec{
		slots:       slots,
		slotBits:    slotBits,
		payloadBits: payloadBits,
		bias:        new(big.Int).Lsh(one, uint(slotBits-1)),
		payMax:      new(big.Int).Lsh(one, uint(payloadBits)),
		mask:        new(big.Int).Lsh(one, uint(slotBits)),
		total:       new(big.Int).Lsh(one, uint(slots*slotBits)),
	}
	c.mask.Sub(c.mask, one)
	c.biasAll = new(big.Int)
	for j := 0; j < slots; j++ {
		shifted := new(big.Int).Lsh(c.bias, uint(j*slotBits))
		c.biasAll.Add(c.biasAll, shifted)
	}
	return c, nil
}

// Slots returns the number of values per plaintext.
func (c *SlotCodec) Slots() int { return c.slots }

// SlotBits returns the per-slot width in bits.
func (c *SlotCodec) SlotBits() int { return c.slotBits }

// PayloadBits returns the per-slot payload width Pack accepts.
func (c *SlotCodec) PayloadBits() int { return c.payloadBits }

// PackedBits returns the bit width of the widest legal packed
// plaintext (its biased form), slots*slotBits.
func (c *SlotCodec) PackedBits() int { return c.slots * c.slotBits }

// Equal reports whether two codecs share the same geometry.
func (c *SlotCodec) Equal(other *SlotCodec) bool {
	return other != nil &&
		c.slots == other.slots &&
		c.slotBits == other.slotBits &&
		c.payloadBits == other.payloadBits
}

// CheckKey verifies the packed plaintext fits the key's centred signed
// domain (-n/2, n/2): the biased form spans PackedBits bits, so the
// modulus must be at least two bits wider.
func (c *SlotCodec) CheckKey(pk *PublicKey) error {
	if pk == nil || pk.N == nil {
		return fmt.Errorf("paillier: nil key")
	}
	if c.PackedBits() > pk.N.BitLen()-2 {
		return fmt.Errorf("paillier: packed width %d bits exceeds key plaintext domain (%d-bit modulus)",
			c.PackedBits(), pk.N.BitLen())
	}
	return nil
}

// ShiftScalar returns 2^(slot*slotBits), the scalar that moves a
// single-value plaintext into the given slot: a PU encrypts
// v*ShiftScalar(j) for its block's slot j, so adding that ciphertext to
// a packed one adds v to slot j.
func (c *SlotCodec) ShiftScalar(slot int) *big.Int {
	return new(big.Int).Lsh(one, uint(slot*c.slotBits))
}

// Pack assembles up to Slots values into one plaintext. Missing
// trailing slots pack as zero. Every value must satisfy
// |v| < 2^PayloadBits; anything larger is rejected with
// ErrSlotOverflow (never silently wrapped).
func (c *SlotCodec) Pack(vals []*big.Int) (*big.Int, error) {
	if len(vals) > c.slots {
		return nil, fmt.Errorf("paillier: %d values exceed %d slots", len(vals), c.slots)
	}
	p := new(big.Int)
	shifted := new(big.Int)
	for j, v := range vals {
		if v == nil {
			continue
		}
		if v.CmpAbs(c.payMax) >= 0 {
			return nil, fmt.Errorf("%w: slot %d value %s exceeds %d payload bits",
				ErrSlotOverflow, j, v, c.payloadBits)
		}
		shifted.Lsh(v, uint(j*c.slotBits))
		p.Add(p, shifted)
	}
	return p, nil
}

// Unpack splits a packed plaintext back into its Slots signed values.
// A plaintext whose biased form falls outside [0, 2^PackedBits) —
// meaning some operation carried out of the top slot — is rejected
// with ErrPackedOverflow.
func (c *SlotCodec) Unpack(p *big.Int) ([]*big.Int, error) {
	biased := new(big.Int).Add(p, c.biasAll)
	if biased.Sign() < 0 || biased.Cmp(c.total) >= 0 {
		return nil, fmt.Errorf("%w: biased value has %d bits, layout holds %d",
			ErrPackedOverflow, biased.BitLen(), c.PackedBits())
	}
	out := make([]*big.Int, c.slots)
	for j := 0; j < c.slots; j++ {
		v := new(big.Int).Rsh(biased, uint(j*c.slotBits))
		v.And(v, c.mask)
		v.Sub(v, c.bias)
		out[j] = v
	}
	return out, nil
}

// UnpackBounded is Unpack plus a per-slot magnitude check: the caller
// states the largest legal bit width a slot can have reached (payload
// bits plus whatever homomorphic growth the protocol performed), and
// any slot at or above 2^maxBits is rejected with ErrSlotOverflow.
// This catches guard-bit exhaustion that stayed inside the overall
// layout and so would pass Unpack undetected.
func (c *SlotCodec) UnpackBounded(p *big.Int, maxBits int) ([]*big.Int, error) {
	if maxBits < 1 || maxBits > c.slotBits-1 {
		return nil, fmt.Errorf("paillier: bound %d bits outside slot range [1, %d]", maxBits, c.slotBits-1)
	}
	vals, err := c.Unpack(p)
	if err != nil {
		return nil, err
	}
	bound := new(big.Int).Lsh(one, uint(maxBits))
	for j, v := range vals {
		if v.CmpAbs(bound) >= 0 {
			return nil, fmt.Errorf("%w: slot %d value %s exceeds stated bound of %d bits",
				ErrSlotOverflow, j, v, maxBits)
		}
	}
	return vals, nil
}

// PackEncrypt packs vals and encrypts the result under pk.
func (pk *PublicKey) PackEncrypt(random io.Reader, codec *SlotCodec, vals []*big.Int) (*Ciphertext, error) {
	if err := codec.CheckKey(pk); err != nil {
		return nil, err
	}
	p, err := codec.Pack(vals)
	if err != nil {
		return nil, err
	}
	return pk.Encrypt(random, p)
}

// DecryptSlots decrypts ct and unpacks it into the codec's slots.
func (sk *PrivateKey) DecryptSlots(codec *SlotCodec, ct *Ciphertext) ([]*big.Int, error) {
	if err := codec.CheckKey(&sk.PublicKey); err != nil {
		return nil, err
	}
	p, err := sk.Decrypt(ct)
	if err != nil {
		return nil, err
	}
	return codec.Unpack(p)
}
