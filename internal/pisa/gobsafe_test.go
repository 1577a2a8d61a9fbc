package pisa

import (
	"bytes"
	"crypto/rand"
	"encoding/gob"
	"math/big"
	"strings"
	"testing"

	"pisa/internal/paillier"
	"pisa/internal/watch"
)

// watchPUID builds an identifier of n bytes.
func watchPUID(n int) watch.PUID { return watch.PUID(strings.Repeat("p", n)) }

// gobRoundTrip encodes src and decodes into dst through a fresh stream,
// the way one wire envelope would carry it.
func gobRoundTrip(t *testing.T, src, dst interface{}) {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(src); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if err := gob.NewDecoder(&buf).Decode(dst); err != nil {
		t.Fatalf("decode: %v", err)
	}
}

func ct(v int64) *paillier.Ciphertext {
	return &paillier.Ciphertext{C: big.NewInt(v)}
}

func TestSignRequestGobRoundTrip(t *testing.T) {
	src := &SignRequest{
		SUID:  "su-1",
		V:     []*paillier.Ciphertext{ct(7), ct(11)},
		Slots: 4, SlotBits: 20, AnswerBits: 384,
	}
	var got SignRequest
	gobRoundTrip(t, src, &got)
	if got.SUID != src.SUID || len(got.V) != 2 || got.V[1].C.Int64() != 11 ||
		got.Slots != 4 || got.SlotBits != 20 || got.AnswerBits != 384 {
		t.Fatalf("round trip mangled request: %+v", got)
	}
}

// decodeFrame gob-encodes a hand-built wire frame and feeds it to
// GobDecode directly, bypassing the (validating) encoder — the move a
// hostile peer makes.
func decodeFrame(t *testing.T, frame interface{}, decode func([]byte) error) error {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(frame); err != nil {
		t.Fatalf("encode hostile frame: %v", err)
	}
	return decode(buf.Bytes())
}

func TestSignRequestGobRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		w    signRequestWire
		want string
	}{
		{"long SUID", signRequestWire{SUID: strings.Repeat("x", maxWireIDLen+1), V: []*paillier.Ciphertext{ct(1)}}, "SUID length"},
		{"nil value", signRequestWire{SUID: "su", V: []*paillier.Ciphertext{{}}}, "invalid ciphertext"},
		{"non-positive", signRequestWire{SUID: "su", V: []*paillier.Ciphertext{ct(0)}}, "invalid ciphertext"},
		// What an SDC on the removed one-cell-per-ciphertext layout sends.
		{"zero slots", signRequestWire{SUID: "su", V: []*paillier.Ciphertext{ct(1)}, AnswerBits: 384}, "unpacked layout was removed"},
		{"negative slots", signRequestWire{SUID: "su", V: []*paillier.Ciphertext{ct(1)}, Slots: -1, SlotBits: 20}, "slot count"},
		{"narrow slot", signRequestWire{SUID: "su", V: []*paillier.Ciphertext{ct(1)}, Slots: 2, SlotBits: 2}, "slot width"},
		{"huge slot", signRequestWire{SUID: "su", V: []*paillier.Ciphertext{ct(1)}, Slots: 2, SlotBits: maxWireSlotBits + 1}, "slot width"},
		{"negative answer width", signRequestWire{SUID: "su", V: []*paillier.Ciphertext{ct(1)}, Slots: 4, SlotBits: 20, AnswerBits: -1}, "answer width"},
		{"huge answer width", signRequestWire{SUID: "su", V: []*paillier.Ciphertext{ct(1)}, Slots: 4, SlotBits: 20, AnswerBits: maxWireSlotBits + 1}, "answer width"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := SignRequest{SUID: "before", V: []*paillier.Ciphertext{ct(99)}}
			err := decodeFrame(t, &tc.w, got.GobDecode)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
			if got.SUID != "before" || got.V[0].C.Int64() != 99 {
				t.Fatal("receiver modified by failed decode")
			}
		})
	}
}

func TestSignRequestGobRejectsOversizedCiphertext(t *testing.T) {
	wide := &paillier.Ciphertext{C: new(big.Int).Lsh(big.NewInt(1), 8*maxWireCtBytes)}
	err := decodeFrame(t, &signRequestWire{SUID: "su", V: []*paillier.Ciphertext{wide}},
		new(SignRequest).GobDecode)
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized ciphertext accepted: %v", err)
	}
}

func TestSignResponseGobRejectsMalformed(t *testing.T) {
	err := decodeFrame(t, &signResponseWire{X: []*paillier.Ciphertext{ct(-3)}},
		new(SignResponse).GobDecode)
	if err == nil || !strings.Contains(err.Error(), "invalid ciphertext") {
		t.Fatalf("negative ciphertext accepted: %v", err)
	}
}

func TestShardAnswerGob(t *testing.T) {
	var got ShardAnswer
	gobRoundTrip(t, &ShardAnswer{D: []*paillier.Ciphertext{ct(5), ct(9)}}, &got)
	if len(got.D) != 2 || got.D[1].C.Int64() != 9 {
		t.Fatalf("round trip mangled answer: %+v", got)
	}
	// The empty-window answer carries no indicator.
	got = ShardAnswer{D: []*paillier.Ciphertext{ct(1)}}
	gobRoundTrip(t, &ShardAnswer{}, &got)
	if len(got.D) != 0 {
		t.Fatalf("empty answer decoded to %+v", got)
	}
	err := decodeFrame(t, &shardAnswerWire{D: []*paillier.Ciphertext{ct(4), {}}}, new(ShardAnswer).GobDecode)
	if err == nil || !strings.Contains(err.Error(), "invalid ciphertext") {
		t.Fatalf("nil indicator accepted: %v", err)
	}
}

func TestPUUpdateGobRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		w    puUpdateWire
		want string
	}{
		{"long PUID", puUpdateWire{PUID: watchPUID(maxWireIDLen + 1), Block: 0, Cts: []*paillier.Ciphertext{ct(1)}}, "PUID length"},
		{"negative block", puUpdateWire{PUID: "tv", Block: -1, Cts: []*paillier.Ciphertext{ct(1)}}, "negative block"},
		{"empty ciphertext", puUpdateWire{PUID: "tv", Block: 0, Cts: []*paillier.Ciphertext{{}}}, "invalid ciphertext"},
		{"negative slots", puUpdateWire{PUID: "tv", Slots: -1, SlotBits: 162, Cts: []*paillier.Ciphertext{ct(1)}}, "slot count"},
		{"huge slot", puUpdateWire{PUID: "tv", Slots: 4, SlotBits: maxWireSlotBits + 1, Cts: []*paillier.Ciphertext{ct(1)}}, "slot width"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := decodeFrame(t, &tc.w, new(PUUpdate).GobDecode)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}
}

// fixedKeySTP is an STPService that hands out one SU key, whatever it
// is: the STP a cache cannot trust.
type fixedKeySTP struct {
	STPService
	pk *paillier.PublicKey
}

func (f fixedKeySTP) SUKey(string) (*paillier.PublicKey, error) { return f.pk, nil }

// TestUntrustedSUKeyRejected: an SU's nonce base H is input from
// outside at every door a key comes in by — live registration, the
// registry snapshot and WAL read back at start-up, a key fetched from
// the STP — and each door refuses an H outside (1, n^2), one sharing a
// factor with n, and an oversized modulus. A second registration of an
// id must match in H as well as in N.
func TestUntrustedSUKeyRejected(t *testing.T) {
	sk, err := paillier.GenerateKey(rand.Reader, 256)
	if err != nil {
		t.Fatal(err)
	}
	good := sk.Public()
	n2 := good.NSquared()
	bad := map[string]*paillier.PublicKey{
		"nil modulus":      {H: good.H},
		"H = 0":            {N: good.N, H: new(big.Int)},
		"H = 1":            {N: good.N, H: big.NewInt(1)},
		"H = n^2":          {N: good.N, H: n2},
		"H far beyond n^2": {N: good.N, H: new(big.Int).Lsh(n2, 1<<20)},
		"H = n":            {N: good.N, H: good.N},
		"oversized modulus": {
			N: new(big.Int).Lsh(big.NewInt(1), 8*maxWireKeyBytes+1),
		},
	}
	for name, pk := range bad {
		stp := NewSTPWithKey(rand.Reader, sk)
		if err := stp.RegisterSU("su-1", pk); err == nil {
			t.Errorf("%s: registration accepted", name)
		}
		cache := newSUKeyCache(fixedKeySTP{pk: pk})
		if _, err := cache.Get("su-1"); err == nil {
			t.Errorf("%s: key fetched from the STP accepted", name)
		}
		if pk.N == nil {
			continue // EncodeSURegistration refuses it before the decoder could
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&suRegistrationV1{ID: "su-1", Modulus: pk.N, Base: pk.H}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := DecodeSURegistration(buf.Bytes()); err == nil {
			t.Errorf("%s: WAL registration record accepted", name)
		}
		h := pk.H
		if h == nil {
			h = new(big.Int)
		}
		buf.Reset()
		reg := stpRegistryV1{Version: stpRegistryVersion, IDs: []string{"su-1"}, Moduli: []*big.Int{pk.N}, Bases: []*big.Int{h}}
		if err := gob.NewEncoder(&buf).Encode(&reg); err != nil {
			t.Fatal(err)
		}
		if name != "H = 0" { // zero is the snapshot's spelling of "no H"
			if err := stp.RestoreRegistry(buf.Bytes(), nil); err == nil {
				t.Errorf("%s: registry snapshot accepted", name)
			}
		}
	}

	stp := NewSTPWithKey(rand.Reader, sk)
	if err := stp.RegisterSU("su-1", good); err != nil {
		t.Fatal(err)
	}
	if err := stp.RegisterSU("su-1", &paillier.PublicKey{N: good.N, H: good.H}); err != nil {
		t.Fatalf("same key refused on re-registration: %v", err)
	}
	otherH := new(big.Int).Exp(good.H, big.NewInt(3), n2)
	for name, pk := range map[string]*paillier.PublicKey{
		"another H": {N: good.N, H: otherH},
		"no H":      {N: good.N},
	} {
		if err := stp.RegisterSU("su-1", pk); err == nil {
			t.Errorf("re-registration of the same modulus with %s accepted", name)
		}
	}
}
