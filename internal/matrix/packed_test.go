package matrix

import (
	"bytes"
	"crypto/rand"
	"encoding/gob"
	"io"
	"math"
	"math/big"
	"testing"

	"pisa/internal/paillier"
)

func packedFixture(t testing.TB) (*paillier.PrivateKey, *paillier.SlotCodec) {
	t.Helper()
	sk, err := paillier.GenerateKey(rand.Reader, 512)
	if err != nil {
		t.Fatalf("GenerateKey: %v", err)
	}
	codec, err := paillier.NewSlotCodec(3, 40, 20)
	if err != nil {
		t.Fatalf("NewSlotCodec: %v", err)
	}
	return sk, codec
}

// packEncryptInts packs and encrypts every row of m: the full window.
func packEncryptInts(random io.Reader, key *paillier.PublicKey, codec *paillier.SlotCodec,
	m *Int, pad int64, workers int) (*Packed, error) {
	return PackEncryptIntsWindow(random, key, codec, m, pad, 0, m.channels, workers)
}

func testIntMatrix(t testing.TB, channels, blocks int, seed int64) *Int {
	t.Helper()
	m, err := NewInt(channels, blocks)
	if err != nil {
		t.Fatalf("NewInt: %v", err)
	}
	v := seed
	for c := 0; c < channels; c++ {
		for b := 0; b < blocks; b++ {
			v = (v*31 + 17) % 1000
			if err := m.Set(c, b, v-500); err != nil {
				t.Fatalf("Set: %v", err)
			}
		}
	}
	return m
}

func TestPackedRoundTripWithPadding(t *testing.T) {
	sk, codec := packedFixture(t)
	// 7 blocks over 3-slot groups: 3 groups, 2 padding slots.
	m := testIntMatrix(t, 2, 7, 3)
	p, err := packEncryptInts(rand.Reader, sk.Public(), codec, m, 1, 1)
	if err != nil {
		t.Fatalf("PackEncryptInts: %v", err)
	}
	if p.groups != 3 {
		t.Errorf("Groups = %d, want 3", p.groups)
	}
	if p.Populated() != 6 {
		t.Errorf("Populated = %d, want 6", p.Populated())
	}
	got, err := DecryptPacked(sk, p)
	if err != nil {
		t.Fatalf("DecryptPacked: %v", err)
	}
	if !got.Equal(m) {
		t.Error("decrypted matrix differs from input (padding leaked?)")
	}
	// A packed matrix is ~k times smaller than one ciphertext per cell.
	if perCell := 2 * 7 * sk.Public().CiphertextBytes(); p.SizeBytes()*2 >= perCell {
		t.Errorf("packed %d B not at least 2x smaller than %d B at one cell per ciphertext",
			p.SizeBytes(), perCell)
	}
}

func TestPackedGobRoundTrip(t *testing.T) {
	sk, codec := packedFixture(t)
	m := testIntMatrix(t, 2, 7, 5)
	p, err := packEncryptInts(rand.Reader, sk.Public(), codec, m, 1, 1)
	if err != nil {
		t.Fatalf("PackEncryptInts: %v", err)
	}
	// Drop one group to exercise sparse encoding.
	if err := p.SetGroup(1, 2, nil); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(p); err != nil {
		t.Fatalf("encode: %v", err)
	}
	var back Packed
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&back); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if back.Populated() != p.Populated() || back.groups != p.groups ||
		back.Blocks() != p.Blocks() || !back.Codec().Equal(codec) {
		t.Fatal("geometry lost in round trip")
	}
	got, err := DecryptPacked(sk, &back)
	if err != nil {
		t.Fatalf("DecryptPacked: %v", err)
	}
	want := m.Clone()
	for b := 6; b < 7; b++ { // group (1,2) covers blocks 6 only
		if err := want.Set(1, b, 0); err != nil {
			t.Fatal(err)
		}
	}
	if !got.Equal(want) {
		t.Error("decrypted round-tripped matrix differs")
	}
}

// corruptPackedFrames returns structurally valid gob that violates the
// matrix invariants, one frame per way of violating them: what
// GobDecode must refuse, and the shapes FuzzPackedGobDecode starts from.
func corruptPackedFrames(t testing.TB) map[string][]byte {
	t.Helper()
	sk, err := paillier.GenerateKey(rand.Reader, 512)
	if err != nil {
		t.Fatalf("GenerateKey: %v", err)
	}
	ct, err := sk.Public().EncryptInt(rand.Reader, 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(*packedGob){
		"zero channels":          func(g *packedGob) { g.Channels = 0 },
		"negative blocks":        func(g *packedGob) { g.Blocks = -1 },
		"cell bomb":              func(g *packedGob) { g.Channels = 1 << 20; g.Blocks = 1 << 20 },
		"overflowing dimensions": func(g *packedGob) { g.Channels = 1 << 62; g.Blocks = 1 << 3 },
		"nil key":                func(g *packedGob) { g.KeyN = nil },
		"negative key":           func(g *packedGob) { g.KeyN = big.NewInt(-17) },
		"bad codec":              func(g *packedGob) { g.SlotBits = 1 },
		"codec too wide for key": func(g *packedGob) { g.Slots = 100; g.SlotBits = 100 },
		// Slot geometries whose width products overflow an int.
		"slot width overflow":    func(g *packedGob) { g.Slots = 2; g.SlotBits = 1 << 62; g.PayloadBits = 1 },
		"slot width wraps":       func(g *packedGob) { g.Slots = 4; g.SlotBits = 1 << 62; g.PayloadBits = 1 },
		"payload width overflow": func(g *packedGob) { g.Slots = 1; g.SlotBits = 3; g.PayloadBits = math.MaxInt },
		"index out of range":     func(g *packedGob) { g.Index = []int32{5} },
		"negative index":         func(g *packedGob) { g.Index = []int32{-1} },
		"length mismatch":        func(g *packedGob) { g.Index = []int32{0, 0} },
		"nil ciphertext value":   func(g *packedGob) { g.Cts = []*paillier.Ciphertext{{}} },
		"zero ciphertext":        func(g *packedGob) { g.Cts = []*paillier.Ciphertext{{C: big.NewInt(0)}} },
		"negative ciphertext":    func(g *packedGob) { g.Cts = []*paillier.Ciphertext{{C: big.NewInt(-5)}} },
		"oversized ciphertext": func(g *packedGob) {
			g.Cts = []*paillier.Ciphertext{{C: new(big.Int).Lsh(big.NewInt(1), 4096)}}
		},
		"more entries than groups": func(g *packedGob) {
			g.Index = []int32{0, 0}
			g.Cts = []*paillier.Ciphertext{ct, ct}
		},
		"duplicate index": func(g *packedGob) {
			g.Blocks = 6
			g.Index = []int32{0, 0}
			g.Cts = []*paillier.Ciphertext{ct, ct}
		},
	}
	frames := make(map[string][]byte, len(cases))
	for name, mutate := range cases {
		g := &packedGob{
			Channels: 1, Blocks: 3,
			Slots: 3, SlotBits: 40, PayloadBits: 20,
			KeyN:  sk.Public().N,
			Index: []int32{0},
			Cts:   []*paillier.Ciphertext{ct},
		}
		mutate(g)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(g); err != nil {
			t.Fatal(err)
		}
		frames[name] = buf.Bytes()
	}
	return frames
}

func TestPackedGobRejectsCorrupt(t *testing.T) {
	for name, frame := range corruptPackedFrames(t) {
		t.Run(name, func(t *testing.T) {
			var p Packed
			if err := p.GobDecode(frame); err == nil {
				t.Fatal("decode succeeded, want error")
			}
			// A failed decode must leave the receiver untouched.
			if p.channels != 0 || p.data != nil {
				t.Fatal("receiver modified by rejected decode")
			}
		})
	}
	var p Packed
	if err := p.GobDecode([]byte("not gob")); err == nil {
		t.Error("garbage accepted")
	}
}

// TestPopulatedCounterTransitions exercises every SetGroup transition
// the incremental counter must track.
func TestPopulatedCounterTransitions(t *testing.T) {
	sk, codec := packedFixture(t)
	p, err := NewPacked(sk.Public(), codec, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := sk.Public().EncryptInt(rand.Reader, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Populated() != 0 {
		t.Fatalf("fresh populated = %d", p.Populated())
	}
	if err := p.SetGroup(0, 0, ct); err != nil {
		t.Fatal(err)
	}
	if err := p.SetGroup(0, 1, ct); err != nil {
		t.Fatal(err)
	}
	if p.Populated() != 2 || p.SizeBytes() != 2*sk.Public().CiphertextBytes() {
		t.Fatalf("populated = %d, size = %d", p.Populated(), p.SizeBytes())
	}
	// Overwriting non-nil with non-nil: no change.
	if err := p.SetGroup(0, 0, ct.Clone()); err != nil {
		t.Fatal(err)
	}
	if p.Populated() != 2 {
		t.Fatalf("populated after overwrite = %d, want 2", p.Populated())
	}
	// Clearing decrements.
	if err := p.SetGroup(0, 1, nil); err != nil {
		t.Fatal(err)
	}
	if p.Populated() != 1 {
		t.Fatalf("populated after clear = %d, want 1", p.Populated())
	}
	// Clearing an already-nil group: no change.
	if err := p.SetGroup(1, 1, nil); err != nil {
		t.Fatal(err)
	}
	if p.Populated() != 1 {
		t.Fatalf("populated after no-op clear = %d, want 1", p.Populated())
	}
}

// TestPopulatedCounterSurvivesGob checks the counter is rebuilt on
// decode (the wire format only carries the sparse entries).
func TestPopulatedCounterSurvivesGob(t *testing.T) {
	sk, codec := packedFixture(t)
	p, err := NewPacked(sk.Public(), codec, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		ct, err := sk.Public().EncryptInt(rand.Reader, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := p.SetGroup(i, i, ct); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := p.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	var back Packed
	if err := back.GobDecode(blob); err != nil {
		t.Fatal(err)
	}
	if back.Populated() != 3 {
		t.Fatalf("decoded populated = %d, want 3", back.Populated())
	}
	if back.SizeBytes() != p.SizeBytes() {
		t.Fatalf("decoded size = %d, want %d", back.SizeBytes(), p.SizeBytes())
	}
}

func TestSizeBytes(t *testing.T) {
	sk, codec := packedFixture(t)
	// 2 channels x ceil(7/3) groups.
	p, err := packEncryptInts(rand.Reader, sk.Public(), codec, testIntMatrix(t, 2, 7, 1), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := 6 * sk.Public().CiphertextBytes()
	if got := p.SizeBytes(); got != want {
		t.Errorf("SizeBytes = %d, want %d", got, want)
	}
}
