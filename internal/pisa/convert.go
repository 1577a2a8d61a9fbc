package pisa

import (
	"fmt"
	"io"
	"math/big"
	"math/bits"
	"slices"

	"pisa/internal/paillier"
	"pisa/internal/parallel"
)

// This file is the blinded sign test, eqs. 14-16: the SDC's blinding
// stage, its round trip to the STP and its unblinding stage, with the
// conversion kernel STP and DistSTP run in between. The STP's answer to a
// sign request (eq. 15) is slot-packed: instead of one SU-key encryption
// E(x_i) per request element, the converted signs x_0 .. x_{S-1} share
// one plaintext, S to a ciphertext, so a request pays one fresh nonce per
// S elements where it paid one per element; answerCodec fixes that
// layout for both ends.

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
// and one nonce per run, over parallel.Auto() workers.
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
	err = parallel.For(parallel.Auto(), len(xs), func(c int) error {
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

// blindFactors is one (alpha, beta, epsilon) tuple for eq. 14, drawn
// by blindChunk for the request cell it blinds. The beta encryption is
// the expensive part: one packed encryption per cell, on every request.
// beta is stored already signed for its epsilon — betaEnc encrypts
// -eps*beta — so that blinding is V~ = I~^(eps*alpha) * betaEnc: one
// exponentiation and one multiplication, plus for eps = -1 an inverse
// that blindChunk shares between the cells of a worker's chunk.
type blindFactors struct {
	alpha   *big.Int
	betaEnc *paillier.Ciphertext // E(-eps*beta), slot-wise
	eps     int64
}

// blind is the request's blinding stage, step 5 of Figure 5: V~ (eq. 14)
// cell by cell, from a power table where the lookup found one for the
// cached I~ — a hit that claimed the build tables what its entry lacks
// here, outside the lock — and with the general exponentiation where not:
// every cell of a miss, the recomputed cells of a partly stale entry. The
// two agree bit for bit, so which one ran shows in the counters and
// nowhere else.
func (s *SDC) blind(r *shardRequest) error {
	tabs := r.tabs
	if r.build {
		tabs = s.tableEntry(r.from, tabs)
	}
	if !tabled(tabs) {
		metrics().blindPlain.Inc()
	}
	r.vs = make([]*paillier.Ciphertext, len(r.cells))
	return parallel.ForChunks(parallel.Auto(), len(r.cells), func(lo, hi int) error {
		return s.blindChunk(r.vs, r.is, tabs, r.cells, lo, hi)
	})
}

// newBlindFactors draws one (alpha, E(-eps*beta), epsilon) tuple of
// eq. 14. Safe for concurrent use (the randomness source is
// shared-reader wrapped at construction).
//
// One tuple blinds one group ciphertext: alpha and epsilon are shared
// across the group's slots (alpha*I keeps every slot inside its width;
// the shared epsilon leaks only the group's relative sign pattern to
// the STP, see DESIGN.md §12), while beta is drawn fresh per slot and
// the tuple's betaEnc is a packed encryption of the k betas.
func (s *SDC) newBlindFactors() (blindFactors, error) {
	alphaLo := new(big.Int).Lsh(big.NewInt(1), uint(s.params.AlphaBits-1))
	alphaHi := new(big.Int).Lsh(big.NewInt(1), uint(s.params.AlphaBits))
	betaHi := new(big.Int).Lsh(big.NewInt(1), uint(s.params.BetaBits))
	alpha, err := paillier.RandomInRange(s.random, alphaLo, alphaHi)
	if err != nil {
		return blindFactors{}, err
	}
	epsBit := make([]byte, 1)
	if _, err := io.ReadFull(s.random, epsBit); err != nil {
		return blindFactors{}, fmt.Errorf("draw epsilon: %w", err)
	}
	eps := int64(1)
	if epsBit[0]&1 == 1 {
		eps = -1
	}
	// Each beta is drawn in [1, 2^BetaBits) and stored as -eps*beta, the
	// plaintext blindChunk adds to eps*alpha*I.
	betas := make([]*big.Int, s.codec.Slots())
	for j := range betas {
		if betas[j], err = paillier.RandomInRange(s.random, big.NewInt(1), betaHi); err != nil {
			return blindFactors{}, err
		}
		if eps > 0 {
			betas[j].Neg(betas[j])
		}
	}
	betaEnc, err := s.group.PackEncrypt(s.random, s.betaCodec, betas)
	if err != nil {
		return blindFactors{}, err
	}
	return blindFactors{alpha: alpha, betaEnc: betaEnc, eps: eps}, nil
}

// blindChunk applies eq. 14 to the cells [lo, hi): vs[k] becomes the
// blinding of the encrypted budget slack is[k] under a tuple drawn here
// for cells[k] (one packed encryption each). One-time alpha > beta > 0
// hide the magnitude, epsilon in {-1, +1} hides the sign from the STP.
// The tuple carries E(-eps*beta), so V~ = eps*(alpha*I - beta) is
// I~^(eps*alpha) times that: I~^alpha from tabs[k] where the cell has a
// table and by the general exponentiation where not, inverted where
// eps = -1 — one modular inversion for the chunk — and multiplied by
// the beta factor.
// Touches only its own range of vs and cells — callable concurrently on
// disjoint ranges.
func (s *SDC) blindChunk(vs, is []*paillier.Ciphertext, tabs []*paillier.PowerTable, cells []requestCell, lo, hi int) error {
	var flipped []int // the chunk's cells with eps = -1
	for k := lo; k < hi; k++ {
		cell := &cells[k]
		var err error
		if cell.bf, err = s.newBlindFactors(); err != nil {
			return fmt.Errorf("blind (%d, %d): %w", cell.c, cell.b, err)
		}
		if tabs != nil && tabs[k] != nil {
			vs[k], err = tabs[k].ScalarMul(cell.bf.alpha)
		} else {
			vs[k], err = s.group.ScalarMul(cell.bf.alpha, is[k])
		}
		if err != nil {
			return fmt.Errorf("blind (%d, %d): %w", cell.c, cell.b, err)
		}
		if cell.bf.eps < 0 {
			flipped = append(flipped, k)
		}
	}
	powers := make([]*paillier.Ciphertext, len(flipped))
	for j, k := range flipped {
		powers[j] = vs[k]
	}
	negs, err := s.group.NegBatch(powers)
	if err != nil {
		cell := &cells[flipped[slices.Index(negs, nil)]]
		return fmt.Errorf("blind (%d, %d): %w", cell.c, cell.b, paillier.ErrInvalidCiphertext)
	}
	for j, k := range flipped {
		vs[k] = negs[j]
	}
	for k := lo; k < hi; k++ {
		cell := &cells[k]
		if vs[k], err = s.group.Add(vs[k], cell.bf.betaEnc); err != nil {
			return fmt.Errorf("blind (%d, %d): %w", cell.c, cell.b, err)
		}
	}
	return nil
}

// stpConvert is the request's sign-test round trip: steps 6-8 of Figure 5
// happen at the STP. The request declares the geometry of its elements,
// so the STP runs the sign test slot-wise, and the room the answer may
// take in the SU's key, which with the element bound fixes the answer's
// layout on both sides.
func (s *SDC) stpConvert(r *shardRequest) error {
	req := &SignRequest{
		SUID:       r.req.SUID,
		V:          r.vs,
		Slots:      s.codec.Slots(),
		SlotBits:   s.codec.SlotBits(),
		AnswerBits: s.params.AnswerBits(r.suKey.Bits()),
	}
	var err error
	if r.answer, err = answerCodec(req.Slots, req.AnswerBits); err != nil {
		return fmt.Errorf("pisa: SU %q: %w", req.SUID, err)
	}
	resp, err := s.stp.ConvertSigns(req)
	if err != nil {
		return fmt.Errorf("pisa: STP conversion: %w", err)
	}
	r.xs = resp.X
	return nil
}

// unblind is the request's unblinding stage, step 9 of Figure 5.
func (s *SDC) unblind(r *shardRequest) (err error) {
	r.ds, err = unblindAnswer(r.suKey, r.answer, s.codec.Slots(), r.xs, r.cells)
	return err
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
