package fbexp

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"runtime"
	"sync"
	"testing"
)

// randMod returns a random odd n of about bits bits (odd so that
// random bases are usually units, though the table does not require
// it). Tables work modulo its square.
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

func square(n *big.Int) *big.Int { return new(big.Int).Mul(n, n) }

// modOf prepares n, which must be at least 2.
func modOf(t testing.TB, n *big.Int) *Modulus {
	t.Helper()
	m, err := NewModulus(n)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// The entry budgets in use: the Paillier nonce table's (11 blocks of
// height 8), an SU key's lean one (2 blocks of height leanWindow) and
// the smallest, which buys one block at any height.
const (
	nonceEntries = 2816
	leanWindow   = 6
	leanEntries  = 126
	oneBlock     = 1
)

// allOnes returns 2^bits - 1, the widest exponent a table of that
// width covers.
func allOnes(bits int) *big.Int {
	e := new(big.Int).Lsh(big.NewInt(1), uint(bits))
	return e.Sub(e, big.NewInt(1))
}

// checkAgainstBigInt holds tab.Exp against big.Int.Exp for the edge
// exponents of the table (0, 1, all ones, one bit too wide) and a batch
// of random ones.
func checkAgainstBigInt(t *testing.T, tab *Table, base, n *big.Int, trials int) {
	t.Helper()
	maxBits := tab.MaxExpBits()
	limit := new(big.Int).Lsh(big.NewInt(1), uint(maxBits)) // first exponent past the table
	exps := []*big.Int{big.NewInt(0), big.NewInt(1), allOnes(maxBits), limit}
	for i := 0; i < trials; i++ {
		e, err := rand.Int(rand.Reader, limit)
		if err != nil {
			t.Fatal(err)
		}
		exps = append(exps, e)
	}
	mod := square(n)
	for _, e := range exps {
		want := new(big.Int).Exp(base, e, mod)
		if got := tab.Exp(e); got.Cmp(want) != 0 {
			t.Fatalf("Exp(%s) = %s, want %s (h=%d v=%d maxBits=%d)",
				e, got, want, tab.Height(), tab.Blocks(), maxBits)
		}
	}
}

// TestExpMatchesBigIntExp is the core property test: for a spread of
// comb heights, exponent budgets and exponent sizes, the table and
// big.Int.Exp must agree exactly.
func TestExpMatchesBigIntExp(t *testing.T) {
	for _, window := range []int{1, 2, 3, 5, 6, 8} {
		for _, maxBits := range []int{1, 7, 64, 256} {
			t.Run(fmt.Sprintf("w=%d/max=%d", window, maxBits), func(t *testing.T) {
				n := randMod(t, 128)
				base, err := rand.Int(rand.Reader, square(n))
				if err != nil {
					t.Fatal(err)
				}
				tab, err := New(base, modOf(t, n), window, maxBits, nonceEntries)
				if err != nil {
					t.Fatal(err)
				}
				checkAgainstBigInt(t, tab, base, n, 20)
			})
		}
	}
}

// TestEveryGeometry walks every comb height New accepts over exponent
// widths and entry budgets chosen so that the derived block count takes
// each kind of value: one block per row bit (b = 1), the budget-limited
// count with a short last block, a single block because the budget buys
// no more (the 100- and 128-bit widths are the blinding scalars such a
// table is built for), and rows shorter than the height.
func TestEveryGeometry(t *testing.T) {
	n := randMod(t, 67) // two limbs with a nearly empty top one
	base, err := rand.Int(rand.Reader, square(n))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[[2]int]bool)
	for h := MinWindow; h <= MaxWindow; h++ {
		for _, maxBits := range []int{1, 5, 13, 64, 100, 128, 256, 700} {
			for _, budget := range []int{oneBlock, 40, nonceEntries} {
				tab, err := New(base, modOf(t, n), h, maxBits, budget)
				if err != nil {
					t.Fatalf("New(h=%d, maxBits=%d, budget=%d): %v", h, maxBits, budget, err)
				}
				perBlock := 1<<uint(h) - 1
				if v := tab.Blocks(); v < 1 || (v > 1 && v*perBlock > budget) {
					t.Fatalf("h=%d maxBits=%d: %d blocks outside the entry budget %d", h, maxBits, v, budget)
				}
				if want := tab.Blocks() * perBlock * 2 * len(n.Bits()) * wordBytes; tab.SizeBytes() != want {
					t.Fatalf("h=%d maxBits=%d budget=%d: SizeBytes %d, want %d", h, maxBits, budget, tab.SizeBytes(), want)
				}
				seen[[2]int{h, tab.Blocks()}] = true
				checkAgainstBigInt(t, tab, base, n, 6)
			}
		}
	}
	t.Logf("%d distinct (h, v) geometries", len(seen))
}

// TestExpEdgeExponents pins the degenerate exponents.
func TestExpEdgeExponents(t *testing.T) {
	n := randMod(t, 96)
	base := big.NewInt(12345)
	tab, err := New(base, modOf(t, n), 4, 64, nonceEntries)
	if err != nil {
		t.Fatal(err)
	}
	cases := []*big.Int{
		big.NewInt(0), // base^0 = 1
		big.NewInt(1),
		big.NewInt(2),
		allOnes(64), // widest covered
	}
	for _, e := range cases {
		want := new(big.Int).Exp(base, e, square(n))
		if got := tab.Exp(e); got.Cmp(want) != 0 {
			t.Fatalf("Exp(%s) = %s, want %s", e, got, want)
		}
	}
}

// TestExpFallback verifies that exponents the table does not cover —
// wider than maxBits, or negative — still produce big.Int.Exp's answer,
// from the base the table reads back out of its first entry (one wider
// than n here, so both halves of the entry matter).
func TestExpFallback(t *testing.T) {
	n := randMod(t, 96)
	base := new(big.Int).Add(new(big.Int).Lsh(n, 3), big.NewInt(7))
	tab, err := New(base, modOf(t, n), 4, 32, oneBlock)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := rand.Int(rand.Reader, new(big.Int).Lsh(big.NewInt(1), 200))
	if err != nil {
		t.Fatal(err)
	}
	wide.SetBit(wide, 199, 1) // force BitLen > maxBits
	if got, want := tab.Exp(wide), new(big.Int).Exp(base, wide, square(n)); got.Cmp(want) != 0 {
		t.Fatalf("wide fallback: got %s, want %s", got, want)
	}
	neg := big.NewInt(-3)
	if got, want := tab.Exp(neg), new(big.Int).Exp(base, neg, square(n)); (got == nil) != (want == nil) ||
		(got != nil && got.Cmp(want) != 0) {
		t.Fatalf("negative fallback: got %v, want %v", got, want)
	}
}

// TestBaseReduced verifies bases >= n^2 are reduced before tabling.
func TestBaseReduced(t *testing.T) {
	n := big.NewInt(1009)
	base := big.NewInt(1009*1009*5 + 1026)
	tab, err := New(base, modOf(t, n), 3, 16, nonceEntries)
	if err != nil {
		t.Fatal(err)
	}
	e := big.NewInt(12_345 % (1 << 16))
	want := new(big.Int).Exp(big.NewInt(1026), e, square(n))
	if got := tab.Exp(e); got.Cmp(want) != 0 {
		t.Fatalf("unreduced base: got %s, want %s", got, want)
	}
}

// TestNewRejectsBadParams covers the constructor's validation.
func TestNewRejectsBadParams(t *testing.T) {
	m := modOf(t, big.NewInt(101))
	base := big.NewInt(3)
	bad := []struct {
		name                 string
		base                 *big.Int
		m                    *Modulus
		window, max, entries int
	}{
		{"nil base", nil, m, 4, 64, nonceEntries},
		{"nil modulus", base, nil, 4, 64, nonceEntries},
		{"height 0", base, m, 0, 64, nonceEntries},
		{"height too large", base, m, MaxWindow + 1, 64, nonceEntries},
		{"maxBits 0", base, m, 4, 0, nonceEntries},
		{"maxBits absurd", base, m, MaxWindow, 1 << 24, nonceEntries},
		{"no entries", base, m, 4, 64, 0},
	}
	for _, c := range bad {
		if _, err := New(c.base, c.m, c.window, c.max, c.entries); err == nil {
			t.Errorf("New(%s): expected error", c.name)
		}
	}
	for _, n := range []*big.Int{nil, big.NewInt(-7), big.NewInt(0), big.NewInt(1)} {
		if _, err := NewModulus(n); err == nil {
			t.Errorf("NewModulus(%v): expected error", n)
		}
	}
}

// TestTableAccessors pins the geometry New derives for each table in
// use, and so the a + b - 2 operations an exponentiation takes: a group
// key's nonce comb, height 8 over 256 bits, is rows of a = 32 bits in
// 11 blocks of b = 3 (11*255 entries, 33 operations); an SU key's lean
// comb, height 6 over 256 bits, is rows of 43 bits in 2 blocks of 22,
// the second one bit short (2*63 entries, 63 operations); the one-block
// table of a blinding scalar, height 3 over 100 bits, is one block of
// 34-bit rows (7 entries, 66 operations).
func TestTableAccessors(t *testing.T) {
	n := randMod(t, 128)
	for _, c := range []struct{ h, maxBits, budget, blocks, rowBits, blockBits, ops int }{
		{8, 256, nonceEntries, 11, 32, 3, 33},
		{leanWindow, 256, leanEntries, 2, 43, 22, 63},
		{3, 100, oneBlock, 1, 34, 34, 66},
	} {
		tab, err := New(big.NewInt(3), modOf(t, n), c.h, c.maxBits, c.budget)
		if err != nil {
			t.Fatal(err)
		}
		if tab.Height() != c.h || tab.Blocks() != c.blocks || tab.MaxExpBits() != c.maxBits {
			t.Fatalf("accessors: height %d blocks %d maxBits %d", tab.Height(), tab.Blocks(), tab.MaxExpBits())
		}
		if tab.rowBits != c.rowBits || tab.blockBits != c.blockBits || tab.rowBits+tab.blockBits-2 != c.ops {
			t.Fatalf("h=%d: rows of %d bits in blocks of %d, want %d and %d (%d operations)",
				c.h, tab.rowBits, tab.blockBits, c.rowBits, c.blockBits, c.ops)
		}
		if want := c.blocks * (1<<uint(c.h) - 1) * 2 * len(n.Bits()) * wordBytes; tab.SizeBytes() != want {
			t.Fatalf("SizeBytes %d, want %d", tab.SizeBytes(), want)
		}
	}
}

// TestSizeBytesIsTrue holds SizeBytes against the heap a table really
// retains, at a 2048-bit n for the Paillier nonce geometries (256-bit
// exponents, a group key's 11 blocks of height 8 and an SU key's 2 of
// height 6) and the one-block one (100-bit exponents, height 3), whose
// callers budget memory by it. Entries are limb ranges of one slab, so there is
// nothing per entry beside its words — no integer headers, none of the
// double-width backing arrays math/big leaves behind a reduced product
// — and nothing per table beside the slab but its geometry: the base is
// the first entry, not a copy. What a small table retains above
// SizeBytes is the allocator's: 7 entries are 3 584 B in a 4 096 B size
// class, plus the 80-byte Table.
func TestSizeBytesIsTrue(t *testing.T) {
	n := randMod(t, 2048)
	base, err := rand.Int(rand.Reader, square(n))
	if err != nil {
		t.Fatal(err)
	}
	m := modOf(t, n) // shared, as under a key: not part of what a table retains
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for _, c := range []struct {
		name                       string
		h, maxBits, budget, tables int // several tables, so unrelated heap noise stays small beside them
		ceiling                    float64
	}{
		{"nonce", 8, 256, nonceEntries, 4, 1.05},
		{"lean", leanWindow, 256, leanEntries, 64, 1.05},
		{"one-block", 3, 100, oneBlock, 256, 1.20},
	} {
		t.Run(c.name, func(t *testing.T) {
			kept := make([]*Table, c.tables)
			before := heap()
			for i := range kept {
				if kept[i], err = New(base, m, c.h, c.maxBits, c.budget); err != nil {
					t.Fatal(err)
				}
			}
			after := heap()
			reported := uint64(c.tables * kept[0].SizeBytes())
			retained := after - before
			if after < before {
				retained = 0
			}
			t.Logf("reported %d B, retained %d B (%.3fx)", reported, retained, float64(retained)/float64(reported))
			if float64(retained) > c.ceiling*float64(reported) {
				t.Fatalf("%d tables retain %d B, more than %.2fx the %d B SizeBytes reports", c.tables, retained, c.ceiling, reported)
			}
			// The slab views must still be the right powers.
			e := new(big.Int).Lsh(big.NewInt(1), uint(c.maxBits-1))
			e.Sub(e, big.NewInt(12345))
			if got, want := kept[0].Exp(e), new(big.Int).Exp(base, e, square(n)); got.Cmp(want) != 0 {
				t.Fatal("Exp over the slab disagrees with big.Int.Exp")
			}
			runtime.KeepAlive(kept)
		})
	}
}

// TestExpAllocs bounds what one exponentiation allocates. From a table:
// the working state with its one scratch array and the result (four
// allocations when measured; there are 33 operations). Through the
// general loop, at the blinding stage's 100-bit scalar and at the wider
// exponents in use, the same four, the odd powers being part of the
// scratch array — 10.1 KiB at 100 bits when measured, against
// big.Int.Exp's 22 allocations and 23 KB, and the same count for 2048
// squarings as for 100. The ceilings (8 and 10 allocations, 12 KiB) leave
// room for a math/big that sizes its temporaries differently, not for an
// allocation per operation.
func TestExpAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	n := randMod(t, 2048)
	m := modOf(t, n)
	base, err := rand.Int(rand.Reader, square(n))
	if err != nil {
		t.Fatal(err)
	}
	tab, err := New(base, m, 8, 256, nonceEntries)
	if err != nil {
		t.Fatal(err)
	}
	e := allOnes(256)
	if allocs := testing.AllocsPerRun(20, func() { tab.Exp(e) }); allocs > 8 {
		t.Fatalf("Table.Exp allocates %.0f times per call, want <= 8", allocs)
	}
	for _, bits := range []int{100, 256, 2048} {
		e := allOnes(bits)
		if allocs := testing.AllocsPerRun(5, func() { Exp(base, e, m) }); allocs > 10 {
			t.Fatalf("Exp with a %d-bit exponent allocates %.0f times per call, want <= 10", bits, allocs)
		}
	}
	e = allOnes(100)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const calls = 20
	for i := 0; i < calls; i++ {
		Exp(base, e, m)
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / calls; perCall > 12<<10 {
		t.Fatalf("Exp with a 100-bit exponent allocates %d B per call, want <= 12 KiB", perCall)
	}
}

// TestConcurrentExp exercises shared reads from many goroutines, under
// -race in CI: one Table and the general loop over one Modulus, whose mu
// every reduction of either reads.
func TestConcurrentExp(t *testing.T) {
	n := randMod(t, 128)
	m, mod := modOf(t, n), square(n)
	base := big.NewInt(65537)
	tab, err := New(base, m, 5, 128, nonceEntries)
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
				want := new(big.Int).Exp(base, e, mod)
				if got := tab.Exp(e); got.Cmp(want) != 0 {
					errs <- fmt.Errorf("goroutine %d: table mismatch at %s", seed, e)
					return
				}
				if got := Exp(base, e, m); got.Cmp(want) != 0 {
					errs <- fmt.Errorf("goroutine %d: general mismatch at %s", seed, e)
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

// FuzzExp cross-checks the comb against big.Int.Exp for arbitrary
// exponent bytes, comb heights, table widths and entry budgets — width
// and budget move the derived block count down to the single block of
// budget 1, and exponents longer than the width take the fallback.
func FuzzExp(f *testing.F) {
	f.Add([]byte{0x01}, uint8(4), uint8(48), uint16(nonceEntries-1))
	f.Add([]byte{0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa}, uint8(6), uint8(48), uint16(nonceEntries-1))
	f.Add([]byte{}, uint8(1), uint8(1), uint16(0))
	f.Add([]byte{0x80, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01}, uint8(3), uint8(64), uint16(nonceEntries-1))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, uint8(7), uint8(72), uint16(300))
	f.Add([]byte{0x01, 0x00, 0x00, 0x00}, uint8(11), uint8(24), uint16(nonceEntries-1))
	f.Add([]byte{0x0f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, uint8(3), uint8(99), uint16(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, uint8(2), uint8(127), uint16(0))
	n := new(big.Int).SetBytes([]byte{
		0xc7, 0x3b, 0x1a, 0x55, 0x91, 0x0e, 0x42, 0x7f,
		0x9d, 0x12, 0x6b, 0xe0, 0x37, 0xa4, 0x5c, 0x01,
	})
	m, mod := modOf(f, n), square(n)
	base := big.NewInt(0xBEEF)
	f.Fuzz(func(t *testing.T, expBytes []byte, window, width uint8, budget uint16) {
		h := int(window%uint8(MaxWindow)) + 1
		maxBits := int(width) + 1
		tab, err := New(base, m, h, maxBits, int(budget)+1)
		if err != nil {
			t.Fatalf("New(h=%d, maxBits=%d, budget=%d): %v", h, maxBits, int(budget)+1, err)
		}
		e := new(big.Int).SetBytes(expBytes)
		want := new(big.Int).Exp(base, e, mod)
		if got := tab.Exp(e); got.Cmp(want) != 0 {
			t.Fatalf("h=%d v=%d maxBits=%d e=%s: got %s, want %s", h, tab.Blocks(), maxBits, e, got, want)
		}
	})
}

// BenchmarkExp compares the three ways to a power at the Paillier shape,
// 2048-bit n (4096-bit n^2): the comb of a tabled base over a 256-bit
// exponent (a group key's full comb and an SU key's lean one, each
// with the cost of its build), the general loop, and big.Int.Exp, which
// the general loop replaced, at the exponent widths in use (100-bit
// blinding scalars, 256-bit nonce exponents and n-sized legacy
// nonces). (The one-block table's rows are paillier's
// BenchmarkScalarMul.)
func BenchmarkExp(b *testing.B) {
	n := randMod(b, 2048)
	m, mod := modOf(b, n), square(n)
	base, err := rand.Int(rand.Reader, mod)
	if err != nil {
		b.Fatal(err)
	}
	exp := func(bits int) *big.Int {
		e, err := rand.Int(rand.Reader, new(big.Int).Lsh(big.NewInt(1), uint(bits)))
		if err != nil {
			b.Fatal(err)
		}
		return e.SetBit(e, bits-1, 1)
	}
	for _, comb := range []struct {
		name            string
		window, entries int
	}{{"full", 8, nonceEntries}, {"lean", leanWindow, leanEntries}} {
		b.Run("comb/"+comb.name, func(b *testing.B) {
			tab, err := New(base, m, comb.window, 256, comb.entries)
			if err != nil {
				b.Fatal(err)
			}
			e := exp(256)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tab.Exp(e)
			}
		})
		b.Run("build/"+comb.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := New(base, m, comb.window, 256, comb.entries); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, bits := range []int{100, 256, 2048} {
		e := exp(bits)
		b.Run(fmt.Sprintf("general/%d-bit", bits), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Exp(base, e, m)
			}
		})
		b.Run(fmt.Sprintf("bigint/%d-bit-exp", bits), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				new(big.Int).Exp(base, e, mod)
			}
		})
	}
}
