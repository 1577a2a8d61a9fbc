package paillier

import (
	"crypto/rand"
	"errors"
	"math"
	"math/big"
	mrand "math/rand"
	"testing"
)

// packKey generates one shared test key wide enough for a few slots.
func packKey(t testing.TB) *PrivateKey {
	t.Helper()
	sk, err := GenerateKey(rand.Reader, 512)
	if err != nil {
		t.Fatalf("GenerateKey: %v", err)
	}
	return sk
}

func mustCodec(t testing.TB, slots, slotBits, payloadBits int) *SlotCodec {
	t.Helper()
	c, err := NewSlotCodec(slots, slotBits, payloadBits)
	if err != nil {
		t.Fatalf("NewSlotCodec(%d,%d,%d): %v", slots, slotBits, payloadBits, err)
	}
	return c
}

// bigInts is vals as big integers, the form Pack takes.
func bigInts(vals ...int64) []*big.Int {
	out := make([]*big.Int, len(vals))
	for i, v := range vals {
		out[i] = big.NewInt(v)
	}
	return out
}

func TestSlotCodecGeometry(t *testing.T) {
	c := mustCodec(t, 4, 40, 20)
	if got := c.Slots(); got != 4 {
		t.Errorf("Slots = %d, want 4", got)
	}
	if got := c.SlotBits(); got != 40 {
		t.Errorf("SlotBits = %d, want 40", got)
	}
	if got := c.PayloadBits(); got != 20 {
		t.Errorf("PayloadBits = %d, want 20", got)
	}
	if got := c.PackedBits(); got != 160 {
		t.Errorf("PackedBits = %d, want 160", got)
	}
	if !c.Equal(mustCodec(t, 4, 40, 20)) {
		t.Error("Equal: identical geometry reported unequal")
	}
	if c.Equal(mustCodec(t, 4, 40, 19)) {
		t.Error("Equal: different payload width reported equal")
	}

	bad := []struct{ slots, slotBits, payloadBits int }{
		{0, 40, 20},                 // no slots
		{-1, 40, 20},                // negative slots
		{maxCodecSlots + 1, 40, 20}, // too many slots
		{4, 21, 20},                 // no guard bit
		{4, 40, 0},                  // empty payload
		{1 << 15, 64, 20},           // total width over cap
		// Geometries whose width products overflow an int past the caps.
		{2, 1 << 62, 1},      // slots*slotBits wraps negative
		{4, 1 << 62, 1},      // slots*slotBits wraps to zero
		{1, 3, math.MaxInt},  // payloadBits+2 wraps negative
		{1, math.MaxInt, 20}, // slot width over cap on its own
		{1, 40, -1},          // negative payload
	}
	for _, tc := range bad {
		if _, err := NewSlotCodec(tc.slots, tc.slotBits, tc.payloadBits); err == nil {
			t.Errorf("NewSlotCodec(%d,%d,%d): want error", tc.slots, tc.slotBits, tc.payloadBits)
		}
	}
}

func TestSlotCodecPackUnpackRoundTrip(t *testing.T) {
	c := mustCodec(t, 6, 44, 40)
	rng := mrand.New(mrand.NewSource(1))
	for round := 0; round < 50; round++ {
		vals := make([]*big.Int, 6)
		for j := range vals {
			v := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), 40))
			if rng.Intn(2) == 1 {
				v.Neg(v)
			}
			vals[j] = v
		}
		p, err := c.Pack(vals)
		if err != nil {
			t.Fatalf("Pack: %v", err)
		}
		got, err := c.Unpack(p)
		if err != nil {
			t.Fatalf("Unpack: %v", err)
		}
		for j := range vals {
			if got[j].Cmp(vals[j]) != 0 {
				t.Fatalf("round %d slot %d: got %s, want %s", round, j, got[j], vals[j])
			}
		}
	}
	// Short input: trailing slots are zero.
	p, err := c.Pack([]*big.Int{big.NewInt(-7)})
	if err != nil {
		t.Fatalf("Pack short: %v", err)
	}
	got, err := c.Unpack(p)
	if err != nil {
		t.Fatalf("Unpack short: %v", err)
	}
	if got[0].Int64() != -7 {
		t.Errorf("slot 0 = %s, want -7", got[0])
	}
	for j := 1; j < 6; j++ {
		if got[j].Sign() != 0 {
			t.Errorf("slot %d = %s, want 0", j, got[j])
		}
	}
}

func TestSlotCodecPackRejectsOverflow(t *testing.T) {
	c := mustCodec(t, 4, 40, 20)
	big20 := new(big.Int).Lsh(big.NewInt(1), 20) // exactly 2^payloadBits
	if _, err := c.Pack([]*big.Int{big20}); !errors.Is(err, ErrSlotOverflow) {
		t.Errorf("Pack(2^20): err = %v, want ErrSlotOverflow", err)
	}
	neg := new(big.Int).Neg(big20)
	if _, err := c.Pack([]*big.Int{neg}); !errors.Is(err, ErrSlotOverflow) {
		t.Errorf("Pack(-2^20): err = %v, want ErrSlotOverflow", err)
	}
	if _, err := c.Pack(make([]*big.Int, 5)); err == nil {
		t.Error("Pack with too many values: want error")
	}
	// The open bound itself is fine.
	almost := new(big.Int).Sub(big20, big.NewInt(1))
	if _, err := c.Pack([]*big.Int{almost, new(big.Int).Neg(almost)}); err != nil {
		t.Errorf("Pack(2^20-1): %v", err)
	}
}

func TestSlotCodecUnpackRejectsLayoutOverflow(t *testing.T) {
	c := mustCodec(t, 3, 10, 4)
	// A plaintext whose biased form exceeds 2^30 means a carry escaped
	// the top slot. Simulate by scaling the packed value so the top
	// slot blows past its width.
	p, err := c.Pack(bigInts(0, 0, 15))
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	p.Mul(p, big.NewInt(1<<6)) // top slot now needs 10 payload bits + headroom
	if _, err := c.Unpack(p); !errors.Is(err, ErrPackedOverflow) {
		t.Errorf("Unpack(overflowed): err = %v, want ErrPackedOverflow", err)
	}
	// Negative direction too.
	p.Neg(p)
	if _, err := c.Unpack(p); !errors.Is(err, ErrPackedOverflow) {
		t.Errorf("Unpack(-overflowed): err = %v, want ErrPackedOverflow", err)
	}
}

// TestSlotCodecHomomorphicParity is the core property: pack, encrypt,
// operate homomorphically, decrypt, unpack — and land exactly on the
// plaintext slot-wise result.
func TestSlotCodecHomomorphicParity(t *testing.T) {
	sk := packKey(t)
	pk := sk.Public()
	c := mustCodec(t, 5, 60, 40)
	if err := c.CheckKey(pk); err != nil {
		t.Fatalf("CheckKey: %v", err)
	}
	rng := mrand.New(mrand.NewSource(2))
	randVals := func() []*big.Int {
		vals := make([]*big.Int, 5)
		for j := range vals {
			v := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), 40))
			if rng.Intn(2) == 1 {
				v.Neg(v)
			}
			vals[j] = v
		}
		return vals
	}
	for round := 0; round < 10; round++ {
		a, b := randVals(), randVals()
		scalar := big.NewInt(int64(rng.Intn(1<<18) + 1))
		if rng.Intn(2) == 1 {
			scalar.Neg(scalar)
		}

		ca, err := pk.PackEncrypt(rand.Reader, c, a)
		if err != nil {
			t.Fatalf("PackEncrypt a: %v", err)
		}
		cb, err := pk.PackEncrypt(rand.Reader, c, b)
		if err != nil {
			t.Fatalf("PackEncrypt b: %v", err)
		}
		// k*(a - b) + a, slot-wise.
		diff, err := pk.Sub(ca, cb)
		if err != nil {
			t.Fatalf("Sub: %v", err)
		}
		scaled, err := pk.ScalarMul(scalar, diff)
		if err != nil {
			t.Fatalf("ScalarMul: %v", err)
		}
		sum, err := pk.Add(scaled, ca)
		if err != nil {
			t.Fatalf("Add: %v", err)
		}
		got, err := sk.DecryptSlots(c, sum)
		if err != nil {
			t.Fatalf("DecryptSlots: %v", err)
		}
		for j := 0; j < 5; j++ {
			want := new(big.Int).Sub(a[j], b[j])
			want.Mul(want, scalar)
			want.Add(want, a[j])
			if got[j].Cmp(want) != 0 {
				t.Fatalf("round %d slot %d: got %s, want %s", round, j, got[j], want)
			}
		}
	}
}

// TestSlotCodecGuardOverflowDetected drives a scalar past the guard
// budget and checks the corruption is flagged, not silently wrapped.
func TestSlotCodecGuardOverflowDetected(t *testing.T) {
	sk := packKey(t)
	pk := sk.Public()
	c := mustCodec(t, 3, 12, 8)
	// Max-magnitude payloads; any scalar ≥ 2^3 pushes |v| past the
	// 2^11 slot bound.
	ct, err := pk.PackEncrypt(rand.Reader, c, []*big.Int{
		big.NewInt(255), big.NewInt(-255), big.NewInt(255),
	})
	if err != nil {
		t.Fatalf("PackEncrypt: %v", err)
	}
	blown, err := pk.ScalarMulInt(1<<5, ct)
	if err != nil {
		t.Fatalf("ScalarMul: %v", err)
	}
	p, err := sk.Decrypt(blown)
	if err != nil {
		t.Fatalf("Decrypt: %v", err)
	}
	// The carry corrupted neighbouring slots; the layout check catches
	// the top-slot escape.
	if _, err := c.Unpack(p); !errors.Is(err, ErrPackedOverflow) {
		t.Errorf("Unpack after guard blow-out: err = %v, want ErrPackedOverflow", err)
	}
}

func TestSlotCodecCheckKey(t *testing.T) {
	sk := packKey(t) // 512-bit modulus
	wide := mustCodec(t, 16, 32, 8)
	if err := wide.CheckKey(sk.Public()); err == nil {
		t.Error("CheckKey: 512-slot-bit codec must not fit a 512-bit key")
	}
	ok := mustCodec(t, 15, 32, 8) // 480 bits <= 510
	if err := ok.CheckKey(sk.Public()); err != nil {
		t.Errorf("CheckKey: %v", err)
	}
	if err := ok.CheckKey(nil); err == nil {
		t.Error("CheckKey(nil): want error")
	}
}

func TestShiftScalarFoldsIntoSlot(t *testing.T) {
	sk := packKey(t)
	pk := sk.Public()
	c := mustCodec(t, 4, 40, 20)
	base, err := pk.PackEncrypt(rand.Reader, c, []*big.Int{
		big.NewInt(10), big.NewInt(20), big.NewInt(30), big.NewInt(40),
	})
	if err != nil {
		t.Fatalf("PackEncrypt: %v", err)
	}
	// Fold a single-value encryption of -5 into slot 2.
	single, err := pk.EncryptInt(rand.Reader, -5)
	if err != nil {
		t.Fatalf("EncryptInt: %v", err)
	}
	shifted, err := pk.ScalarMul(c.ShiftScalar(2), single)
	if err != nil {
		t.Fatalf("ScalarMul: %v", err)
	}
	sum, err := pk.Add(base, shifted)
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	got, err := sk.DecryptSlots(c, sum)
	if err != nil {
		t.Fatalf("DecryptSlots: %v", err)
	}
	want := []int64{10, 20, 25, 40}
	for j, w := range want {
		if got[j].Int64() != w {
			t.Errorf("slot %d = %s, want %d", j, got[j], w)
		}
	}
}

// FuzzSlotCodec checks, at the integer level (no crypto, so the fuzzer
// gets real throughput), that pack → add/scale → unpack agrees with
// the plaintext slot-wise result, and that out-of-domain inputs are
// rejected rather than wrapped.
func FuzzSlotCodec(f *testing.F) {
	f.Add(int64(1), int64(-2), int64(3), int64(4), int64(5))
	f.Add(int64(1<<39), int64(-(1 << 39)), int64(0), int64(7), int64(-1))
	f.Add(int64(0), int64(0), int64(0), int64(0), int64(0))
	c, err := NewSlotCodec(2, 60, 40)
	if err != nil {
		f.Fatal(err)
	}
	bound := new(big.Int).Lsh(big.NewInt(1), 40)
	f.Fuzz(func(t *testing.T, a0, a1, b0, b1, k int64) {
		a := []*big.Int{big.NewInt(a0), big.NewInt(a1)}
		b := []*big.Int{big.NewInt(b0), big.NewInt(b1)}
		pa, errA := c.Pack(a)
		pb, errB := c.Pack(b)
		inDomain := func(vs []*big.Int) bool {
			for _, v := range vs {
				if v.CmpAbs(bound) >= 0 {
					return false
				}
			}
			return true
		}
		if inDomain(a) != (errA == nil) || inDomain(b) != (errB == nil) {
			t.Fatalf("Pack domain mismatch: a err=%v b err=%v", errA, errB)
		}
		if errA != nil || errB != nil {
			return
		}
		// p = k*a + b slot-wise, on the packed integers.
		p := new(big.Int).Mul(pa, big.NewInt(k))
		p.Add(p, pb)
		got, err := c.Unpack(p)
		if err != nil {
			// Legal only when some slot genuinely left the layout.
			for j := 0; j < 2; j++ {
				want := new(big.Int).Mul(a[j], big.NewInt(k))
				want.Add(want, b[j])
				if want.BitLen() >= c.SlotBits()-1 {
					return // overflow correctly rejected
				}
			}
			t.Fatalf("Unpack rejected in-range result: %v", err)
		}
		for j := 0; j < 2; j++ {
			want := new(big.Int).Mul(a[j], big.NewInt(k))
			want.Add(want, b[j])
			if want.BitLen() >= c.SlotBits()-1 {
				// This slot overflowed its width but the layout check
				// cannot see it (no top-slot escape).
				return
			}
			if got[j].Cmp(want) != 0 {
				t.Fatalf("slot %d: got %s, want %s", j, got[j], want)
			}
		}
	})
}

// TestDecryptBatchContextReuse pins the scratch-reuse path: batch
// results must match one-shot Decrypt exactly and must not alias each
// other through the shared context.
func TestDecryptBatchContextReuse(t *testing.T) {
	sk := packKey(t)
	pk := sk.Public()
	msgs := []int64{0, 1, -1, 123456789, -987654321, 42}
	cts := make([]*Ciphertext, len(msgs))
	for i, m := range msgs {
		ct, err := pk.EncryptInt(rand.Reader, m)
		if err != nil {
			t.Fatalf("EncryptInt: %v", err)
		}
		cts[i] = ct
	}
	for _, workers := range []int{1, 3} {
		got, err := sk.DecryptBatch(cts, workers)
		if err != nil {
			t.Fatalf("DecryptBatch(workers=%d): %v", workers, err)
		}
		for i, m := range msgs {
			if got[i].Int64() != m {
				t.Errorf("workers=%d element %d: got %s, want %d", workers, i, got[i], m)
			}
		}
	}
	// An invalid element surfaces as an error, not a panic.
	badCts := append(append([]*Ciphertext{}, cts...), &Ciphertext{C: big.NewInt(0)})
	if _, err := sk.DecryptBatch(badCts, 2); err == nil {
		t.Error("DecryptBatch with invalid element: want error")
	}
}
