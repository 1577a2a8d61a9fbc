package pisa

import (
	"fmt"
	"io"
	"math/big"
	"math/bits"

	"pisa/internal/paillier"
	"pisa/internal/parallel"
)

// The STP's answer to a sign request (eq. 15) is slot-packed: instead
// of one SU-key encryption E(x_i) per request element, the converted
// signs x_0 .. x_{S-1} share one plaintext, S to a ciphertext, so a
// request pays one fresh nonce per S elements where it paid one per
// element. This file holds both ends of that layout — the conversion
// kernel STP and DistSTP run, and the unblinding the SDC applies to
// what comes back — and the one function that fixes its geometry.

// answerSignatureMargin is how far below the license signature's width
// the masked indicator eta*D stays. An SU that is denied decrypts
// sig + eta*D; D's magnitude tells which slot failed, and what hides it
// is the signature it is added to, which the SU cannot predict. The
// margin bounds the chance that the sum leaves the signature's range,
// the one event that would show the magnitude, by 2^-margin.
const answerSignatureMargin = 64

// AnswerBits returns how many plaintext bits of an SU key of keyBits
// bits the packed answer may occupy. Two bounds, both on the widest
// mask term eta*D, |eta*D| < 2^(answerBits + EtaBits):
//
//   - it must stay inside the centred plaintext domain of the SU's key,
//     answerBits + EtaBits + 1 < keyBits - 1, so that eta*D is never 0
//     modulo any modulus an SU might register unless D is 0;
//   - it must stay answerSignatureMargin bits below the signature it
//     masks (see there).
func (p Params) AnswerBits(keyBits int) int {
	room := keyBits - 3
	if r := p.SignerBits - answerSignatureMargin; r < room {
		room = r
	}
	return room - p.EtaBits
}

// answerCodec returns the slot layout of a packed answer whose elements
// are bounded by k in magnitude (a request element's sign sum lies in
// [-k, k] for k slots) inside answerBits plaintext bits. A slot is
// bitlen(k) + 3 bits: the payload,
// one bit for the SDC's epsilon correction — x_i - eps_i*k lies in
// [-2k, 2k] — one of guard and the sign, so that a packed indicator D
// is 0 only if every slot of it is. Pure function of its arguments: the
// STP packs with it, the SDC corrects with it, and a disagreement shows
// as a wrong ciphertext count.
func answerCodec(k, answerBits int) (*paillier.SlotCodec, error) {
	if k < 1 {
		return nil, fmt.Errorf("pisa: answer element bound %d below 1", k)
	}
	payload := bits.Len(uint(k))
	slotBits := payload + 3
	if answerBits < slotBits {
		return nil, fmt.Errorf("pisa: %d answer bits cannot hold one %d-bit sign slot", answerBits, slotBits)
	}
	return paillier.NewSlotCodec(answerBits/slotBits, slotBits, payload)
}

// signKernel is what a sign conversion needs from the party running it:
// the group key the request geometry is checked against, the SU key
// registry, a decryption of the flattened batch (one private key at the
// STP, a round of partial decryptions at the DistSTP), and optionally a
// tap on the decrypted values (tests).
type signKernel struct {
	group   *paillier.PublicKey
	suKey   func(id string) (*paillier.PublicKey, error)
	decrypt func(flat []*paillier.Ciphertext) ([]*big.Int, error)
	observe func(suID string, values []*big.Int)
	random  io.Reader
	workers int
}

// requestCodec reconstructs and validates the slot codec a sign request
// declares. The payload width is irrelevant for unpacking, so the widest
// legal value is used.
func requestCodec(req *SignRequest, group *paillier.PublicKey) (*paillier.SlotCodec, error) {
	codec, err := paillier.NewSlotCodec(req.Slots, req.SlotBits, req.SlotBits-2)
	if err != nil {
		return nil, fmt.Errorf("pisa: sign request slot geometry: %w", err)
	}
	if err := codec.CheckKey(group); err != nil {
		return nil, fmt.Errorf("pisa: sign request slot geometry: %w", err)
	}
	return codec, nil
}

// signOf maps a decrypted blinded value to its converted sign: the sum
// of the per-slot eq. 15 sign tests, (slots that passed) - (slots that
// failed) up to the element's epsilon.
func signOf(v *big.Int, codec *paillier.SlotCodec) (int64, error) {
	slots, err := codec.Unpack(v)
	if err != nil {
		return 0, err
	}
	var sum int64
	for _, sv := range slots {
		if sv.Sign() > 0 {
			sum++
		} else {
			sum--
		}
	}
	return sum, nil
}

// convertSigns is the conversion kernel of eq. 15, the only one: the
// private-key STP and the threshold DistSTP both end here. All elements
// are decrypted through one call; then every run of S elements is
// sign-tested, packed and encrypted under the SU's key, one ciphertext
// and one nonce per run, on the worker pool.
func convertSigns(k signKernel, req *SignRequest) (*SignResponse, error) {
	if req == nil {
		return nil, fmt.Errorf("pisa: nil sign request")
	}
	suKey, err := k.suKey(req.SUID)
	if err != nil {
		return nil, err
	}
	codec, err := requestCodec(req, k.group)
	if err != nil {
		return nil, err
	}
	answer, err := answerCodec(codec.Slots(), req.AnswerBits)
	if err != nil {
		return nil, err
	}
	if err := answer.CheckKey(suKey); err != nil {
		return nil, fmt.Errorf("pisa: answer layout: %w", err)
	}
	vals, err := k.decrypt(req.V)
	if err != nil {
		return nil, err
	}
	per := answer.Slots()
	xs := make([]*paillier.Ciphertext, (len(vals)+per-1)/per)
	// Positional writes keep the response in the request's order at any
	// worker count.
	err = parallel.For(k.workers, len(xs), func(c int) error {
		run := vals[c*per : min((c+1)*per, len(vals))]
		signs := make([]*big.Int, len(run))
		for i, v := range run {
			x, err := signOf(v, codec)
			if err != nil {
				return fmt.Errorf("pisa: sign test V[%d]: %w", c*per+i, err)
			}
			signs[i] = big.NewInt(x)
		}
		enc, err := suKey.PackEncrypt(k.random, answer, signs)
		if err != nil {
			return fmt.Errorf("pisa: encrypt X[%d]: %w", c, err)
		}
		xs[c] = enc
		return nil
	})
	if err != nil {
		return nil, err
	}
	if k.observe != nil {
		k.observe(req.SUID, vals)
	}
	return &SignResponse{X: xs}, nil
}

// unblindAnswer is the SDC's half of the packed answer, step 9 of
// Figure 5: it turns the STP's X~ into the grant indicators D~ under
// the SU key. Element i was blinded with eps_i, so its converted sign
// is x_i = eps_i*(k - 2*f_i) for f_i failed slot tests out of k.
// Subtracting K = sum_i eps_i*k*2^(i*w) slot-wise — one plaintext
// addition, no exponentiation; only the SDC knows the eps — leaves
// -2*eps_i*f_i in slot i: D = 0 exactly when every test passed
// (DESIGN.md §12 has the proof and the bounds). An answer with any
// other ciphertext count than the layout dictates is refused.
func unblindAnswer(suKey *paillier.PublicKey, answer *paillier.SlotCodec, k int, xs []*paillier.Ciphertext, cells []requestCell) ([]*paillier.Ciphertext, error) {
	per := answer.Slots()
	if want := (len(cells) + per - 1) / per; len(xs) != want {
		return nil, fmt.Errorf("pisa: STP returned %d packed answers for %d elements, want %d", len(xs), len(cells), want)
	}
	ds := make([]*paillier.Ciphertext, len(xs))
	for c, x := range xs {
		run := cells[c*per : min((c+1)*per, len(cells))]
		negK := make([]*big.Int, len(run))
		for i := range run {
			negK[i] = big.NewInt(-run[i].bf.eps * int64(k))
		}
		offset, err := answer.Pack(negK)
		if err != nil {
			return nil, fmt.Errorf("pisa: unblind signs: %w", err)
		}
		if ds[c], err = suKey.AddPlain(x, offset); err != nil {
			return nil, fmt.Errorf("pisa: unblind signs: %w", err)
		}
	}
	return ds, nil
}
