package pisa

import (
	"encoding/hex"
	"math/big"
	"testing"

	"pisa/internal/matrix"
	"pisa/internal/paillier"
)

func ct(v int64) *paillier.Ciphertext {
	return &paillier.Ciphertext{C: big.NewInt(v)}
}

// digestKey is a fixed public key (Mersenne modulus 2^127-1) so the
// digest fixtures are fully deterministic.
func digestKey() *paillier.PublicKey {
	n := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 127), big.NewInt(1))
	return &paillier.PublicKey{N: n}
}

// pinnedPacked builds the canonical packed fixture: 2 channels, 8
// blocks in groups of 4.
func pinnedPacked(t *testing.T) *TransmissionRequest {
	t.Helper()
	codec, err := paillier.NewSlotCodec(4, 20, 16)
	if err != nil {
		t.Fatal(err)
	}
	p, err := matrix.NewPacked(digestKey(), codec, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SetGroup(0, 0, ct(3003)); err != nil {
		t.Fatal(err)
	}
	if err := p.SetGroup(1, 1, ct(4004)); err != nil {
		t.Fatal(err)
	}
	return &TransmissionRequest{SUID: "su-pin", FP: p}
}

// The pinned digest commits to the v2 layout: any change to the tag,
// framing, coordinate mixing or element order is a compatibility break
// for issued licenses and must show up here.
const pinnedPackedDigest = "dfb5b00a9bc56e0fe8d0b32ec63497654ffa0fe5896f9a8f9a19172523c09e3c"

func TestDigestPinned(t *testing.T) {
	d, err := pinnedPacked(t).Digest()
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(d[:]); got != pinnedPackedDigest {
		t.Errorf("digest = %s, want %s", got, pinnedPackedDigest)
	}
}

func TestDigestBindsCoordinatesAndIdentity(t *testing.T) {
	base, err := pinnedPacked(t).Digest()
	if err != nil {
		t.Fatal(err)
	}
	// Same ciphertext bytes at a different group must change the digest
	// — the raw-concatenation ambiguity the v2 layout closes.
	moved := pinnedPacked(t)
	if err := moved.FP.SetGroup(1, 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := moved.FP.SetGroup(1, 0, ct(4004)); err != nil {
		t.Fatal(err)
	}
	movedD, err := moved.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if movedD == base {
		t.Error("digest ignores group coordinates")
	}
	// Swapping two group values keeps the concatenated bytes' multiset
	// identical; the digest must still differ.
	swapped := pinnedPacked(t)
	if err := swapped.FP.SetGroup(0, 0, ct(4004)); err != nil {
		t.Fatal(err)
	}
	if err := swapped.FP.SetGroup(1, 1, ct(3003)); err != nil {
		t.Fatal(err)
	}
	swappedD, err := swapped.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if swappedD == base {
		t.Error("digest ignores group order")
	}
	// The SUID is length-prefixed, so it cannot absorb ciphertext bytes.
	renamed := pinnedPacked(t)
	renamed.SUID = "su-pin2"
	renamedD, err := renamed.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if renamedD == base {
		t.Error("digest ignores SUID")
	}
}

// Same ciphertexts under a different declared slot geometry must
// produce a different digest.
func TestDigestSeparatesLayouts(t *testing.T) {
	p, err := pinnedPacked(t).Digest()
	if err != nil {
		t.Fatal(err)
	}
	codec, err := paillier.NewSlotCodec(5, 20, 16)
	if err != nil {
		t.Fatal(err)
	}
	alt, err := matrix.NewPacked(digestKey(), codec, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := alt.SetGroup(0, 0, ct(3003)); err != nil {
		t.Fatal(err)
	}
	if err := alt.SetGroup(1, 1, ct(4004)); err != nil {
		t.Fatal(err)
	}
	altD, err := (&TransmissionRequest{SUID: "su-pin", FP: alt}).Digest()
	if err != nil {
		t.Fatal(err)
	}
	if altD == p {
		t.Error("digest ignores slot geometry")
	}
}

func TestDigestRejectsEmptyRequest(t *testing.T) {
	if _, err := (&TransmissionRequest{SUID: "su"}).Digest(); err == nil {
		t.Error("digest of a request without a matrix succeeded")
	}
}
