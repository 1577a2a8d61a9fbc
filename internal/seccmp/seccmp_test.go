package seccmp

import (
	"crypto/rand"
	mrand "math/rand"
	"sync"
	"testing"

	"pisa/internal/paillier"
)

var fixture = sync.OnceValue(func() *Helper {
	sk, err := paillier.GenerateKey(rand.Reader, 512)
	if err != nil {
		panic(err)
	}
	return NewHelper(rand.Reader, sk)
})

func newEval(t *testing.T) *Evaluator {
	t.Helper()
	e, err := NewEvaluator(rand.Reader, fixture(), 64)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewEvaluatorValidation(t *testing.T) {
	if _, err := NewEvaluator(rand.Reader, nil, 64); err == nil {
		t.Error("nil helper accepted")
	}
	if _, err := NewEvaluator(rand.Reader, fixture(), 4); err == nil {
		t.Error("tiny blinding accepted")
	}
}

func TestMulMatchesPlaintext(t *testing.T) {
	e := newEval(t)
	h := fixture()
	for _, pair := range [][2]int64{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {3, 7}, {-2, 5}} {
		ca, err := e.pk.EncryptInt(rand.Reader, pair[0])
		if err != nil {
			t.Fatal(err)
		}
		cb, err := e.pk.EncryptInt(rand.Reader, pair[1])
		if err != nil {
			t.Fatal(err)
		}
		prod, err := e.Mul(ca, cb)
		if err != nil {
			t.Fatalf("Mul: %v", err)
		}
		got, err := h.key.DecryptInt(prod)
		if err != nil {
			t.Fatal(err)
		}
		if got != pair[0]*pair[1] {
			t.Errorf("Mul(%d, %d) = %d", pair[0], pair[1], got)
		}
	}
}

func TestGateTruthTables(t *testing.T) {
	e := newEval(t)
	h := fixture()
	enc := func(b int64) *paillier.Ciphertext {
		t.Helper()
		ct, err := e.pk.EncryptInt(rand.Reader, b)
		if err != nil {
			t.Fatal(err)
		}
		return ct
	}
	dec := func(ct *paillier.Ciphertext) int {
		t.Helper()
		v, err := DecryptBit(h, ct)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	for a := int64(0); a <= 1; a++ {
		for b := int64(0); b <= 1; b++ {
			ca, cb := enc(a), enc(b)
			if xor, err := e.Xor(ca, cb); err != nil {
				t.Fatal(err)
			} else if got := dec(xor); got != int(a^b) {
				t.Errorf("XOR(%d, %d) = %d", a, b, got)
			}
			if or, err := e.Or(ca, cb); err != nil {
				t.Fatal(err)
			} else if got := dec(or); got != int(a|b) {
				t.Errorf("OR(%d, %d) = %d", a, b, got)
			}
		}
		if not, err := e.Not(enc(a)); err != nil {
			t.Fatal(err)
		} else if got := dec(not); got != int(1-a) {
			t.Errorf("NOT(%d) = %d", a, got)
		}
	}
}

func TestGreaterThanMatchesPlaintext(t *testing.T) {
	e := newEval(t)
	h := fixture()
	rng := mrand.New(mrand.NewSource(5))
	const width = 8
	for trial := 0; trial < 8; trial++ {
		x := uint64(rng.Intn(256))
		y := uint64(rng.Intn(256))
		ex, err := e.EncryptBits(x, width)
		if err != nil {
			t.Fatal(err)
		}
		ey, err := e.EncryptBits(y, width)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.GreaterThan(ex, ey)
		if err != nil {
			t.Fatalf("GreaterThan: %v", err)
		}
		got, err := DecryptBit(h, res)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		if x > y {
			want = 1
		}
		if got != want {
			t.Fatalf("GT(%d, %d) = %d, want %d", x, y, got, want)
		}
	}
}

func TestGreaterThanEdgeCases(t *testing.T) {
	e := newEval(t)
	h := fixture()
	for _, tc := range [][2]uint64{{0, 0}, {15, 15}, {0, 15}, {15, 0}, {8, 7}} {
		ex, err := e.EncryptBits(tc[0], 4)
		if err != nil {
			t.Fatal(err)
		}
		ey, err := e.EncryptBits(tc[1], 4)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.GreaterThan(ex, ey)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecryptBit(h, res)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		if tc[0] > tc[1] {
			want = 1
		}
		if got != want {
			t.Errorf("GT(%d, %d) = %d, want %d", tc[0], tc[1], got, want)
		}
	}
}

func TestStatsCountRounds(t *testing.T) {
	e := newEval(t)
	ex, err := e.EncryptBits(200, 8)
	if err != nil {
		t.Fatal(err)
	}
	ey, err := e.EncryptBits(100, 8)
	if err != nil {
		t.Fatal(err)
	}
	e.Stats = Stats{}
	if _, err := e.GreaterThan(ex, ey); err != nil {
		t.Fatal(err)
	}
	// The 8-bit tree costs at least one interactive multiplication
	// per leaf pair plus per combine: well over 8 rounds. This is
	// exactly the overhead PISA's design avoids.
	if e.Stats.Rounds < 8 {
		t.Errorf("Rounds = %d, expected the bit-wise protocol to need many round trips", e.Stats.Rounds)
	}
	if e.Stats.HomOps <= e.Stats.Rounds {
		t.Errorf("HomOps = %d should exceed Rounds = %d", e.Stats.HomOps, e.Stats.Rounds)
	}
}

func TestValidation(t *testing.T) {
	e := newEval(t)
	bits, err := e.EncryptBits(5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.GreaterThan(bits, bits[:2]); err == nil {
		t.Error("width mismatch accepted")
	}
	if _, err := e.GreaterThan(nil, nil); err == nil {
		t.Error("empty operands accepted")
	}
	if _, err := e.EncryptBits(5, 0); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := e.EncryptBits(5, 65); err == nil {
		t.Error("width 65 accepted")
	}
}
