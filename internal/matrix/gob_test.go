package matrix

import (
	"crypto/rand"
	"testing"
)

// checkDecodedPacked asserts the invariants the rest of the package
// relies on in a matrix GobDecode accepted.
func checkDecodedPacked(t *testing.T, p *Packed) {
	t.Helper()
	if p.channels <= 0 || p.blocks <= 0 || p.groups != (p.blocks+p.codec.Slots()-1)/p.codec.Slots() ||
		len(p.data) != p.channels*p.groups {
		t.Fatalf("decoded inconsistent matrix %dx%d, %d groups, %d entries",
			p.channels, p.blocks, p.groups, len(p.data))
	}
	populated := 0
	for _, ct := range p.data {
		if ct == nil {
			continue
		}
		if ct.C == nil || ct.C.Sign() <= 0 {
			t.Fatal("decoded invalid ciphertext")
		}
		populated++
	}
	if populated != p.populated {
		t.Fatalf("decoded populated = %d, %d entries present", p.populated, populated)
	}
}

// TestPackedGobByteFlips walks a valid encoding and flips bytes one at
// a time: every mutation must either decode to a structurally sound
// matrix or return an error — never panic.
func TestPackedGobByteFlips(t *testing.T) {
	sk, codec := packedFixture(t)
	p, err := packEncryptInts(rand.Reader, sk.Public(), codec, testIntMatrix(t, 2, 5, 1), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := p.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	for i := range blob {
		for _, flip := range []byte{0x01, 0x80, 0xff} {
			mutated := append([]byte(nil), blob...)
			mutated[i] ^= flip
			var back Packed
			if err := back.GobDecode(mutated); err != nil {
				continue
			}
			checkDecodedPacked(t, &back)
		}
	}
}

// FuzzPackedGobDecode drives GobDecode — what every SU request and every
// SDC snapshot goes through — with arbitrary bytes; the seeds cover a
// valid sparse encoding and the known corruption shapes. Run with
// `go test -fuzz '^FuzzPackedGobDecode$' ./internal/matrix/`.
func FuzzPackedGobDecode(f *testing.F) {
	frames := corruptPackedFrames(f)
	sk, codec := packedFixture(f)
	p, err := packEncryptInts(rand.Reader, sk.Public(), codec, testIntMatrix(f, 2, 7, 5), 1, 1)
	if err != nil {
		f.Fatal(err)
	}
	if err := p.SetGroup(1, 2, nil); err != nil {
		f.Fatal(err)
	}
	blob, err := p.GobEncode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add([]byte("not gob"))
	f.Add([]byte{})
	for _, frame := range frames {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var back Packed
		if err := back.GobDecode(data); err != nil {
			return
		}
		checkDecodedPacked(t, &back)
	})
}
