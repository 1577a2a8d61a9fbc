package pisa

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"pisa/internal/dsig"
	"pisa/internal/geo"
	"pisa/internal/matrix"
	"pisa/internal/paillier"
	"pisa/internal/watch"
)

// PUUpdate is the channel-reception update a PU sends the SDC
// (Figure 4): one group-key ciphertext per channel for the PU's
// (public, registered) block, encrypting W(c) = T(c) - E(c) for the
// received channel and 0 elsewhere. A switched-off receiver sends all
// zeros.
//
// Updates are one ciphertext per channel: a PU speaks for a single
// block, so there is nothing to pack, but it encrypts each value into
// its block's slot (W(c)*2^(slot*SlotBits), slot = Block mod Slots), so
// the SDC adds the ciphertexts into its packed budget as they arrive
// (see SDC.groupColumn). Slots and SlotBits declare the layout the
// update was packed for; the SDC refuses any other.
type PUUpdate struct {
	// PUID identifies the sender; its block registration is public.
	PUID watch.PUID
	// Block is the PU's registered location.
	Block geo.BlockID
	// Slots and SlotBits are the slot layout the PU encrypted for
	// (Params.SlotCodec); zero in an update from before PUs encrypted
	// into their slot.
	Slots    int
	SlotBits int
	// Cts holds exactly C ciphertexts, channel-indexed.
	Cts []*paillier.Ciphertext
}

// TransmissionRequest is the SU's spectrum-access request (Figure 5):
// the encrypted F matrix plus the disclosed block set it covers. Nothing
// else travels: two SUs with one SUID and one disclosure send requests
// of the same shape whatever their block, channels and EIRP.
type TransmissionRequest struct {
	// SUID identifies the requester; the STP must know its public key.
	SUID string
	// FP is the encrypted F_j matrix under the group key, slot-packed:
	// k block cells per ciphertext along the block axis. All C channels
	// are populated for every disclosed group, including encryptions of
	// zero, so the SDC cannot tell which channels or blocks matter.
	// Padding slots encrypt zero. Disclosure granularity rounds up to
	// whole groups.
	FP *matrix.Packed
	// Disclosure lists the block columns shipped; nil or
	// grid-complete means full location privacy (§VI-A trade-off).
	Disclosure []geo.BlockID
}

// SizeBytes reports the request's dominant wire size (the ciphertext
// payload), the quantity Figure 6 reports as about 29 MB at paper
// scale with one cell per ciphertext — and ~k times less at k slots.
func (r *TransmissionRequest) SizeBytes() int {
	if r.FP == nil {
		return 0
	}
	return r.FP.SizeBytes()
}

// Ciphertexts reports how many ciphertexts the request ships — the
// number of fresh nonces one refresh cycle consumes.
func (r *TransmissionRequest) Ciphertexts() int {
	if r.FP == nil {
		return 0
	}
	return r.FP.Populated()
}

// digestU32 appends a length/coordinate as fixed-width framing.
func digestU32(buf *bytes.Buffer, v int) {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], uint32(v))
	buf.Write(b[:])
}

// digestModePacked is the layout byte the digest writes. Slot-packed is
// the only layout; the byte stays in the preimage so that license
// bindings keep their values.
const (
	digestTag        = "pisa-request-digest-v2\x00"
	digestModePacked = byte(1)
)

// Digest commits to the encrypted request for license binding. Every
// variable-length element is length-prefixed and every ciphertext is
// bound to its (channel, block-group) coordinates, so distinct
// matrices can never collide by concatenation (two adjacent cells
// re-split differently, a cell migrating to a different coordinate,
// or an SUID absorbing the first ciphertext's bytes).
func (r *TransmissionRequest) Digest() ([32]byte, error) {
	if r.FP == nil {
		return [32]byte{}, fmt.Errorf("pisa: request has no F matrix")
	}
	var buf bytes.Buffer
	buf.WriteString(digestTag)
	digestU32(&buf, len(r.SUID))
	buf.WriteString(r.SUID)
	buf.WriteByte(digestModePacked)
	digestU32(&buf, r.FP.Channels())
	digestU32(&buf, r.FP.Blocks())
	digestU32(&buf, r.FP.Slots())
	digestU32(&buf, r.FP.Codec().SlotBits())
	err := r.FP.ForEachGroup(func(c, g int, ct *paillier.Ciphertext) error {
		digestU32(&buf, c)
		digestU32(&buf, g)
		raw := ct.C.Bytes()
		digestU32(&buf, len(raw))
		buf.Write(raw)
		return nil
	})
	if err != nil {
		return [32]byte{}, err
	}
	return dsig.HashRequest(buf.Bytes()), nil
}

// SDCService is the slice of the SDC an SU needs: request processing.
// *Router satisfies it in process (a full-window *SDC through its own
// one-shard router), node.SDCClient over TCP.
type SDCService interface {
	ProcessRequest(req *TransmissionRequest) (*Response, error)
}

// Response is the SDC's reply (Figure 5, step 11): the license body in
// the clear plus the masked signature ciphertext under the SU's key.
// The SDC sends the identical shape whether or not the request was
// granted, so it never learns the decision.
type Response struct {
	// License is the permission body the signature covers.
	License dsig.License
	// MaskedSig is G~ = SG~ (+) eta (x) D~ under the SU's key, D~ the
	// grant indicator (one term per indicator when there are several).
	MaskedSig *paillier.Ciphertext
}

// ShardAnswer is one shard's contribution to a sharded SU request
// (DESIGN.md §15): the grant indicators D under the SU's key over the
// channel rows the shard owns, one per ciphertext of the STP's packed
// answer (normally one). Every D decrypts to 0 exactly when every slot
// test it covers passed; the shard has already applied its own epsilon
// correction, so the router subtracts nothing. It must not add two D's
// either — their digits carry the random signs of the shards' epsilons
// and a -2 of one shard would cancel a +2 of another into a false
// grant — and hands all of them to Licenser.Issue, which masks each
// under its own eta. A shard that saw no populated cell inside its
// window answers with no D at all.
type ShardAnswer struct {
	D []*paillier.Ciphertext
}

// SignRequest is what the SDC sends the STP: the blinded sign-test
// column V~ (eq. 14) for one SU request, in an order known only to
// the SDC.
type SignRequest struct {
	// SUID names the SU whose public key the STP must convert to.
	SUID string
	// V holds the blinded ciphertexts under the group key.
	V []*paillier.Ciphertext
	// Slots and SlotBits are the slot geometry of the elements: each
	// V[i] carries Slots blinded indicators in slots of SlotBits bits.
	// The STP unpacks each decryption and sign-tests every slot; V[i]'s
	// converted sign x_i is the sum of its slot signs (Slots when all
	// pass, less otherwise).
	Slots    int
	SlotBits int
	// AnswerBits is how many plaintext bits of the SU's key the packed
	// answer may occupy (Params.AnswerBits: what the license mask eta
	// and the signature leave free). With the per-element bound Slots it
	// fixes the answer's slot layout (answerCodec) identically on both
	// sides.
	AnswerBits int
}

// SignResponse carries the converted signs X~ (eq. 15) under the SU's
// public key, slot-packed: X[c] holds x_i for the elements i in
// [c*S, (c+1)*S) of SignRequest.V, S the slot count of the answer
// layout — one ciphertext, one fresh nonce, for up to S elements.
type SignResponse struct {
	X []*paillier.Ciphertext
}
