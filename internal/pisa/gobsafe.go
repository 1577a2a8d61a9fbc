package pisa

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"pisa/internal/paillier"
)

// Hardened gob codecs for the protocol messages that cross trust
// boundaries (PU -> SDC updates, SDC <-> STP sign tests). Without
// them, a hostile peer could declare element counts or ciphertext
// widths that make the decoder allocate unbounded memory before any
// protocol-level validation runs — the same failure mode
// internal/matrix closes for Packed (matching caps here). The
// receiver is unmodified on failure.
const (
	// maxWireElements caps declared slice lengths, matching the
	// matrix cell cap: no legal message carries more ciphertexts than
	// a full C x B matrix.
	maxWireElements = 1 << 26
	// maxWireCtBytes caps one serialised ciphertext: 64 KiB holds a
	// ciphertext for a 256k-bit modulus, far beyond any real key.
	maxWireCtBytes = 1 << 16
	// maxWireKeyBytes caps one serialised public modulus: the n whose
	// n^2 fills maxWireCtBytes. A key's nonce base H lives below n^2, so
	// the same cap bounds it.
	maxWireKeyBytes = maxWireCtBytes / 2
	// maxWireIDLen caps identifier strings.
	maxWireIDLen = 4096
	// maxWireSlotBits caps the declared packed-slot geometry.
	maxWireSlotBits = 1 << 20
)

// checkWireCiphertexts validates a decoded ciphertext slice: every
// entry present, positive, and of plausible size.
func checkWireCiphertexts(what string, cts []*paillier.Ciphertext) error {
	if len(cts) > maxWireElements {
		return fmt.Errorf("pisa: decode %s: %d elements exceed cap %d", what, len(cts), maxWireElements)
	}
	for i, ct := range cts {
		if ct == nil || ct.C == nil || ct.C.Sign() <= 0 {
			return fmt.Errorf("pisa: decode %s: element %d has invalid ciphertext", what, i)
		}
		if (ct.C.BitLen()+7)/8 > maxWireCtBytes {
			return fmt.Errorf("pisa: decode %s: element %d ciphertext exceeds %d bytes", what, i, maxWireCtBytes)
		}
	}
	return nil
}

// checkWireKey validates a public key that came from outside the
// process — an SU's registration, a key fetched from the STP, a
// registry record read back from disk: modulus present and of plausible
// size, nonce base absent or a unit of Z_{n^2} other than 1
// (paillier.PublicKey.Check). That is all anyone but the owner can
// check; a key whose H is not the n-th residue of hidden order it
// should be weakens or garbles only ciphertexts under that key, i.e.
// what its owner receives (DESIGN.md §6).
func checkWireKey(what string, pk *paillier.PublicKey) error {
	if pk == nil || pk.N == nil {
		return fmt.Errorf("pisa: %s: nil public key", what)
	}
	if (pk.N.BitLen()+7)/8 > maxWireKeyBytes {
		return fmt.Errorf("pisa: %s: modulus exceeds %d bytes", what, maxWireKeyBytes)
	}
	if err := pk.Check(); err != nil {
		return fmt.Errorf("pisa: %s: %w", what, err)
	}
	return nil
}

// signRequestWire mirrors SignRequest for encoding; the separate type
// keeps gob off the GobEncoder method set (infinite recursion
// otherwise).
type signRequestWire SignRequest

// GobEncode implements gob.GobEncoder.
func (r *SignRequest) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode((*signRequestWire)(r))
	if err != nil {
		return nil, fmt.Errorf("pisa: encode sign request: %w", err)
	}
	return buf.Bytes(), nil
}

// checkSignRequestWire validates one decoded sign-request frame:
// identifier, ciphertext and slot-geometry caps.
func (w *signRequestWire) check() error {
	if len(w.SUID) > maxWireIDLen {
		return fmt.Errorf("pisa: decode sign request: SUID length %d exceeds cap %d", len(w.SUID), maxWireIDLen)
	}
	if err := checkWireCiphertexts("sign request", w.V); err != nil {
		return err
	}
	if w.Slots == 0 {
		// What an SDC on the removed one-cell-per-ciphertext layout sends.
		return fmt.Errorf("pisa: decode sign request: no slot geometry: the unpacked layout was removed, sign requests are slot-packed")
	}
	if w.Slots < 1 || w.Slots > maxWireElements {
		return fmt.Errorf("pisa: decode sign request: slot count %d outside [1, %d]", w.Slots, maxWireElements)
	}
	if w.SlotBits < 3 || w.SlotBits > maxWireSlotBits {
		return fmt.Errorf("pisa: decode sign request: slot width %d outside [3, %d]", w.SlotBits, maxWireSlotBits)
	}
	if w.AnswerBits < 0 || w.AnswerBits > maxWireSlotBits {
		return fmt.Errorf("pisa: decode sign request: answer width %d outside [0, %d]", w.AnswerBits, maxWireSlotBits)
	}
	return nil
}

// GobDecode implements gob.GobDecoder with element-count, ciphertext
// size and geometry caps.
func (r *SignRequest) GobDecode(data []byte) error {
	var w signRequestWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return fmt.Errorf("pisa: decode sign request: %w", err)
	}
	if err := w.check(); err != nil {
		return err
	}
	*r = SignRequest(w)
	return nil
}

// signResponseWire mirrors SignResponse for encoding.
type signResponseWire struct {
	X []*paillier.Ciphertext
}

// GobEncode implements gob.GobEncoder.
func (r *SignResponse) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&signResponseWire{X: r.X}); err != nil {
		return nil, fmt.Errorf("pisa: encode sign response: %w", err)
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder with element caps.
func (r *SignResponse) GobDecode(data []byte) error {
	var w signResponseWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return fmt.Errorf("pisa: decode sign response: %w", err)
	}
	if err := checkWireCiphertexts("sign response", w.X); err != nil {
		return err
	}
	*r = SignResponse{X: w.X}
	return nil
}

// puUpdateWire mirrors PUUpdate for encoding.
type puUpdateWire PUUpdate

// GobEncode implements gob.GobEncoder.
func (u *PUUpdate) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode((*puUpdateWire)(u))
	if err != nil {
		return nil, fmt.Errorf("pisa: encode PU update: %w", err)
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder with element-count, ciphertext
// size and layout caps. Semantic validation (channel count and layout
// matching the deployment, block inside the grid, ciphertexts below the
// group key's n^2) stays with SDC.HandlePUUpdate, which knows the
// parameters. A zero layout decodes, so that the SDC can refuse it by
// name.
func (u *PUUpdate) GobDecode(data []byte) error {
	var w puUpdateWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return fmt.Errorf("pisa: decode PU update: %w", err)
	}
	if len(w.PUID) > maxWireIDLen {
		return fmt.Errorf("pisa: decode PU update: PUID length %d exceeds cap %d", len(w.PUID), maxWireIDLen)
	}
	if w.Block < 0 {
		return fmt.Errorf("pisa: decode PU update: negative block %d", w.Block)
	}
	if w.Slots < 0 || w.Slots > maxWireElements {
		return fmt.Errorf("pisa: decode PU update: slot count %d outside [0, %d]", w.Slots, maxWireElements)
	}
	if w.SlotBits < 0 || w.SlotBits > maxWireSlotBits {
		return fmt.Errorf("pisa: decode PU update: slot width %d outside [0, %d]", w.SlotBits, maxWireSlotBits)
	}
	if err := checkWireCiphertexts("PU update", w.Cts); err != nil {
		return err
	}
	*u = PUUpdate(w)
	return nil
}

// shardAnswerWire mirrors ShardAnswer for encoding.
type shardAnswerWire struct {
	D []*paillier.Ciphertext
}

// GobEncode implements gob.GobEncoder.
func (a *ShardAnswer) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&shardAnswerWire{D: a.D}); err != nil {
		return nil, fmt.Errorf("pisa: encode shard answer: %w", err)
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder. No indicator at all is the legal
// empty-window answer; those present obey the shared size caps.
func (a *ShardAnswer) GobDecode(data []byte) error {
	var w shardAnswerWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return fmt.Errorf("pisa: decode shard answer: %w", err)
	}
	if err := checkWireCiphertexts("shard answer", w.D); err != nil {
		return err
	}
	*a = ShardAnswer{D: w.D}
	return nil
}
