package fbexp

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"runtime"
	"sync"
	"testing"
)

// randMod returns a random odd modulus of about bits bits (odd so that
// random bases are usually units, though the table does not require it).
func randMod(t testing.TB, bits int) *big.Int {
	t.Helper()
	m, err := rand.Int(rand.Reader, new(big.Int).Lsh(big.NewInt(1), uint(bits)))
	if err != nil {
		t.Fatal(err)
	}
	m.SetBit(m, bits-1, 1)
	m.SetBit(m, 0, 1)
	return m
}

// TestExpMatchesBigIntExp is the core property test: for random window
// widths, exponent budgets and exponent sizes, the windowed table and
// big.Int.Exp must agree exactly.
func TestExpMatchesBigIntExp(t *testing.T) {
	for _, window := range []int{1, 2, 3, 5, 6, 8} {
		for _, maxBits := range []int{1, 7, 64, 256} {
			t.Run(fmt.Sprintf("w=%d/max=%d", window, maxBits), func(t *testing.T) {
				m := randMod(t, 128)
				base, err := rand.Int(rand.Reader, m)
				if err != nil {
					t.Fatal(err)
				}
				tab, err := New(base, m, window, maxBits)
				if err != nil {
					t.Fatal(err)
				}
				for trial := 0; trial < 20; trial++ {
					limit := new(big.Int).Lsh(big.NewInt(1), uint(maxBits))
					e, err := rand.Int(rand.Reader, limit)
					if err != nil {
						t.Fatal(err)
					}
					want := new(big.Int).Exp(base, e, m)
					if got := tab.Exp(e); got.Cmp(want) != 0 {
						t.Fatalf("Exp(%s) = %s, want %s (w=%d maxBits=%d)", e, got, want, window, maxBits)
					}
				}
			})
		}
	}
}

// TestExpEdgeExponents pins the degenerate exponents.
func TestExpEdgeExponents(t *testing.T) {
	m := randMod(t, 96)
	base := big.NewInt(12345)
	tab, err := New(base, m, 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	cases := []*big.Int{
		big.NewInt(0), // base^0 = 1
		big.NewInt(1),
		big.NewInt(2),
		new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 64), big.NewInt(1)), // all-ones, widest covered
	}
	for _, e := range cases {
		want := new(big.Int).Exp(base, e, m)
		if got := tab.Exp(e); got.Cmp(want) != 0 {
			t.Fatalf("Exp(%s) = %s, want %s", e, got, want)
		}
	}
}

// TestExpFallback verifies that exponents the table does not cover —
// wider than maxBits, or negative — still produce big.Int.Exp's answer.
func TestExpFallback(t *testing.T) {
	m := randMod(t, 96)
	base := big.NewInt(7)
	tab, err := New(base, m, 4, 32)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := rand.Int(rand.Reader, new(big.Int).Lsh(big.NewInt(1), 200))
	if err != nil {
		t.Fatal(err)
	}
	wide.SetBit(wide, 199, 1) // force BitLen > maxBits
	if got, want := tab.Exp(wide), new(big.Int).Exp(base, wide, m); got.Cmp(want) != 0 {
		t.Fatalf("wide fallback: got %s, want %s", got, want)
	}
	neg := big.NewInt(-3)
	if got, want := tab.Exp(neg), new(big.Int).Exp(base, neg, m); (got == nil) != (want == nil) ||
		(got != nil && got.Cmp(want) != 0) {
		t.Fatalf("negative fallback: got %v, want %v", got, want)
	}
}

// TestBaseReduced verifies bases >= modulus are reduced before tabling.
func TestBaseReduced(t *testing.T) {
	m := big.NewInt(1009)
	base := big.NewInt(1009*5 + 17)
	tab, err := New(base, m, 3, 16)
	if err != nil {
		t.Fatal(err)
	}
	e := big.NewInt(12_345 % (1 << 16))
	want := new(big.Int).Exp(big.NewInt(17), e, m)
	if got := tab.Exp(e); got.Cmp(want) != 0 {
		t.Fatalf("unreduced base: got %s, want %s", got, want)
	}
}

// TestNewRejectsBadParams covers the constructor's validation.
func TestNewRejectsBadParams(t *testing.T) {
	m := big.NewInt(101)
	base := big.NewInt(3)
	bad := []struct {
		name          string
		base, modulus *big.Int
		window, max   int
	}{
		{"nil base", nil, m, 4, 64},
		{"nil modulus", base, nil, 4, 64},
		{"modulus 1", base, big.NewInt(1), 4, 64},
		{"window 0", base, m, 0, 64},
		{"window too wide", base, m, MaxWindow + 1, 64},
		{"maxBits 0", base, m, 4, 0},
		{"table explosion", base, m, MaxWindow, 1 << 24},
	}
	for _, c := range bad {
		if _, err := New(c.base, c.modulus, c.window, c.max); err == nil {
			t.Errorf("New(%s): expected error", c.name)
		}
	}
}

// TestTableAccessors sanity-checks the reporting surface.
func TestTableAccessors(t *testing.T) {
	m := randMod(t, 128)
	tab, err := New(big.NewInt(3), m, 6, 256)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Window() != 6 || tab.MaxExpBits() != 256 {
		t.Fatalf("accessors: window %d maxBits %d", tab.Window(), tab.MaxExpBits())
	}
	if want := (256 + 5) / 6; tab.Levels() != want {
		t.Fatalf("levels %d, want %d", tab.Levels(), want)
	}
	if tab.SizeBytes() <= 0 {
		t.Fatalf("SizeBytes %d", tab.SizeBytes())
	}
}

// TestSizeBytesIsTrue holds SizeBytes against the heap a table really
// retains, at the Paillier hot-path geometry (4096-bit modulus, 256-bit
// exponents, window 6). Keeping math/big's reduced products directly
// retained their double-width backing arrays, 8.3 MiB against a
// reported 1.4 MiB.
func TestSizeBytesIsTrue(t *testing.T) {
	m := randMod(t, 4096)
	base, err := rand.Int(rand.Reader, m)
	if err != nil {
		t.Fatal(err)
	}
	const tables = 4 // several, so unrelated heap noise stays small beside them
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	kept := make([]*Table, tables)
	for i := range kept {
		if kept[i], err = New(base, m, 6, 256); err != nil {
			t.Fatal(err)
		}
	}
	after := heap()
	reported := uint64(tables * kept[0].SizeBytes())
	retained := after - before
	if after < before {
		retained = 0
	}
	t.Logf("reported %d B, retained %d B (%.2fx)", reported, retained, float64(retained)/float64(reported))
	if float64(retained) > 1.25*float64(reported) {
		t.Fatalf("%d tables retain %d B, more than 1.25x the %d B SizeBytes reports", tables, retained, reported)
	}
	// The exact-size copies must still be the right powers.
	e := new(big.Int).Lsh(big.NewInt(1), 255)
	e.Sub(e, big.NewInt(12345))
	if got, want := kept[0].Exp(e), new(big.Int).Exp(base, e, m); got.Cmp(want) != 0 {
		t.Fatal("Exp over the exact-size table disagrees with big.Int.Exp")
	}
	runtime.KeepAlive(kept)
}

// TestConcurrentExp exercises shared-table reads from many goroutines
// (run under -race in CI via the paillier/pisa race job split — fbexp
// itself is pure reads after New).
func TestConcurrentExp(t *testing.T) {
	m := randMod(t, 128)
	base := big.NewInt(65537)
	tab, err := New(base, m, 5, 128)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			e := big.NewInt(seed)
			for i := 0; i < 50; i++ {
				e.Add(e, big.NewInt(982451653))
				want := new(big.Int).Exp(base, e, m)
				if got := tab.Exp(e); got.Cmp(want) != 0 {
					errs <- fmt.Errorf("goroutine %d: mismatch at %s", seed, e)
					return
				}
			}
		}(int64(g + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// FuzzExp cross-checks the windowed evaluation against big.Int.Exp for
// arbitrary exponent bytes and window widths.
func FuzzExp(f *testing.F) {
	f.Add([]byte{0x01}, uint8(4))
	f.Add([]byte{0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa}, uint8(6))
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{0x80, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01}, uint8(3))
	modulus := new(big.Int).SetBytes([]byte{
		0xc7, 0x3b, 0x1a, 0x55, 0x91, 0x0e, 0x42, 0x7f,
		0x9d, 0x12, 0x6b, 0xe0, 0x37, 0xa4, 0x5c, 0x01,
	})
	base := big.NewInt(0xBEEF)
	f.Fuzz(func(t *testing.T, expBytes []byte, window uint8) {
		w := int(window%uint8(MaxWindow)) + 1
		tab, err := New(base, modulus, w, 48)
		if err != nil {
			t.Fatalf("New(w=%d): %v", w, err)
		}
		e := new(big.Int).SetBytes(expBytes)
		want := new(big.Int).Exp(base, e, modulus)
		if got := tab.Exp(e); got.Cmp(want) != 0 {
			t.Fatalf("w=%d e=%s: got %s, want %s", w, e, got, want)
		}
	})
}

// BenchmarkExp compares the windowed table against big.Int.Exp for the
// Paillier-shaped case: 4096-bit modulus, 256-bit exponent.
func BenchmarkExp(b *testing.B) {
	m := randMod(b, 4096)
	base, err := rand.Int(rand.Reader, m)
	if err != nil {
		b.Fatal(err)
	}
	e, err := rand.Int(rand.Reader, new(big.Int).Lsh(big.NewInt(1), 256))
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{4, 6, 8} {
		b.Run(fmt.Sprintf("windowed/w=%d", w), func(b *testing.B) {
			tab, err := New(base, m, w, 256)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tab.Exp(e)
			}
		})
	}
	b.Run("bigint/256-bit-exp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			new(big.Int).Exp(base, e, m)
		}
	})
}
