package fbexp

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"testing"
)

// shapedMod returns a k-word modulus whose top word is 1, all ones, or
// has its top bit clear — the three cases the reduction's operand bound
// depends on (one word past b^(2k) only when the top bit is set) — with
// random lower words.
func shapedMod(t testing.TB, k int, top string) *big.Int {
	t.Helper()
	const w = wordBytes * 8
	n, err := rand.Int(rand.Reader, new(big.Int).Lsh(one, uint((k-1)*w)))
	if err != nil {
		t.Fatal(err)
	}
	var hi *big.Int
	switch top {
	case "one":
		hi = big.NewInt(1)
	case "ones":
		hi = allOnes(w)
	case "clear":
		hi = allOnes(w - 1)
	default:
		t.Fatalf("unknown top-word shape %q", top)
	}
	n.Add(n, hi.Lsh(hi, uint((k-1)*w)))
	if n.Cmp(big.NewInt(2)) < 0 {
		n.SetInt64(2) // k = 1, top word 1
	}
	return n
}

var (
	modWords  = []int{1, 2, 9, 12, 16, 32}
	modShapes = []string{"one", "ones", "clear"}
)

// TestBarrettExact holds divmod — quotient and remainder — against
// QuoRem over moduli of every width and top-word shape in use, on the
// operands the bound is stated for (0, n-1, n^2, the largest sum
// 2n^2 + n) and random ones up to it.
func TestBarrettExact(t *testing.T) {
	for _, k := range modWords {
		for _, shape := range modShapes {
			t.Run(fmt.Sprintf("k=%d/top=%s", k, shape), func(t *testing.T) {
				n := shapedMod(t, k, shape)
				if len(n.Bits()) != k {
					t.Fatalf("modulus has %d words, want %d", len(n.Bits()), k)
				}
				nn := square(n)
				largest := new(big.Int).Lsh(nn, 1)
				largest.Add(largest, n)
				xs := []*big.Int{
					big.NewInt(0), big.NewInt(1),
					new(big.Int).Sub(n, one), n, new(big.Int).Add(n, one),
					new(big.Int).Sub(nn, one), nn, new(big.Int).Add(nn, one),
					new(big.Int).Lsh(nn, 1), new(big.Int).Sub(largest, one), largest,
				}
				for i := 0; i < 200; i++ {
					x, err := rand.Int(rand.Reader, new(big.Int).Add(largest, one))
					if err != nil {
						t.Fatal(err)
					}
					// Every operand width from one word up, not only full ones.
					xs = append(xs, x.Rsh(x, uint(i%(2*k+1))*wordBytes*8))
				}
				p, _ := newPair(modOf(t, n), 0)
				var q, r, wantR big.Int
				for _, x := range xs {
					wantQ := new(big.Int)
					wantQ.QuoRem(x, n, &wantR)
					p.divmod(&q, &r, x)
					if q.Cmp(wantQ) != 0 || r.Cmp(&wantR) != 0 {
						t.Fatalf("divmod(%s) by %s = (%s, %s), want (%s, %s)", x, n, &q, &r, wantQ, &wantR)
					}
					p.divmod(nil, &r, x)
					if r.Cmp(&wantR) != 0 {
						t.Fatalf("divmod(%s) by %s without quotient: remainder %s, want %s", x, n, &r, &wantR)
					}
				}
			})
		}
	}
}

// TestPairMulSqrMatchBigInt drives mul and sqr themselves at the corners
// of their operand range — halves of 0 and n-1, where the sums they
// reduce are smallest and largest — for every modulus shape.
func TestPairMulSqrMatchBigInt(t *testing.T) {
	for _, k := range modWords {
		for _, shape := range modShapes {
			n := shapedMod(t, k, shape)
			nn := square(n)
			top := new(big.Int).Sub(n, one)
			halves := []*big.Int{big.NewInt(0), big.NewInt(1), top}
			for i := 0; i < 4; i++ {
				h, err := rand.Int(rand.Reader, n)
				if err != nil {
					t.Fatal(err)
				}
				halves = append(halves, h)
			}
			val := func(u, v *big.Int) *big.Int {
				x := new(big.Int).Mul(v, n)
				return x.Add(x, u)
			}
			p, _ := newPair(modOf(t, n), 0)
			for _, u1 := range halves {
				for _, v1 := range halves {
					x := val(u1, v1)
					p.set(u1, v1)
					p.sqr()
					if got, want := p.value(), new(big.Int).Mul(x, x); got.Cmp(want.Mod(want, nn)) != 0 {
						t.Fatalf("k=%d top=%s: (%s)^2 = %s, want %s", k, shape, x, got, want)
					}
					for _, u2 := range halves {
						for _, v2 := range halves {
							y := val(u2, v2)
							p.set(u1, v1)
							p.mul(u2, v2)
							if got, want := p.value(), new(big.Int).Mul(x, y); got.Cmp(want.Mod(want, nn)) != 0 {
								t.Fatalf("k=%d top=%s: %s * %s = %s, want %s", k, shape, x, y, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// checkExp holds Exp against big.Int.Exp for one input, nil results (a
// negative exponent on a non-unit) included. The reference reduces the
// base first: big.Int.Exp itself flips the sign of the result once too
// often for a negative base under a negative odd exponent
// ((-2)^-1 mod 7 comes out as 4).
func checkExp(t *testing.T, m *Modulus, x, e *big.Int) {
	t.Helper()
	nn := square(m.n)
	want := new(big.Int).Exp(new(big.Int).Mod(x, nn), e, nn)
	got := Exp(x, e, m)
	if (got == nil) != (want == nil) || (got != nil && got.Cmp(want) != 0) {
		t.Fatalf("Exp(%s, %s) mod %s^2 = %v, want %v", x, e, m.n, got, want)
	}
}

// TestExpMatchesBigInt is the general loop's property test: bases at
// the edges of Z_{n^2} and outside it, units and non-units; exponents
// that are zero, one, single bits (every slot shift 2^(slot*162) of a
// 12-slot packing among them), the widths in use and every window size.
func TestExpMatchesBigInt(t *testing.T) {
	randBits := func(bits int) *big.Int {
		e, err := rand.Int(rand.Reader, new(big.Int).Lsh(one, uint(bits)))
		if err != nil {
			t.Fatal(err)
		}
		return e.SetBit(e, bits-1, 1)
	}
	exps := []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(2), big.NewInt(3)}
	for j := 2; j <= 12; j++ {
		exps = append(exps, new(big.Int).Lsh(one, uint(1)<<uint(j))) // 2^(2^j)
	}
	for slot := 0; slot < 12; slot++ {
		exps = append(exps, new(big.Int).Lsh(one, uint(slot*162)))
	}
	windows := make(map[int]bool)
	// One width inside every window class, the scalar widths of the
	// protocol (100-bit alpha, 256-bit nonce exponent, n-sized r^n), and
	// exponents whose low half is zero, which the window is not sized by.
	for _, bits := range []int{5, 7, 20, 24, 60, 80, 100, 240, 256, 600, 672, 2048} {
		e := randBits(bits)
		exps = append(exps, e, allOnes(bits), new(big.Int).Lsh(e, uint(bits)), new(big.Int).Neg(e))
		windows[windowBits(bits)] = true
	}
	for w := 1; w <= 6; w++ {
		if !windows[w] {
			t.Fatalf("no exponent reaches window size %d", w)
		}
	}
	for _, c := range []struct {
		k     int
		shape string
	}{{1, "one"}, {2, "clear"}, {9, "ones"}, {32, "ones"}} {
		t.Run(fmt.Sprintf("k=%d/top=%s", c.k, c.shape), func(t *testing.T) {
			n := shapedMod(t, c.k, c.shape)
			n.SetBit(n, 0, 1) // odd, so random bases are mostly units
			m, nn := modOf(t, n), square(n)
			unit, err := rand.Int(rand.Reader, nn)
			if err != nil {
				t.Fatal(err)
			}
			bases := []*big.Int{
				big.NewInt(0), big.NewInt(1), big.NewInt(2), new(big.Int).Sub(nn, one),
				unit,
				new(big.Int).Sub(n, one), n, new(big.Int).Mul(n, big.NewInt(3)), // n and 3n are not units
				nn, new(big.Int).Add(nn, unit), new(big.Int).Lsh(unit, 200), // at and beyond n^2
				big.NewInt(-5), new(big.Int).Neg(unit),
			}
			for _, x := range bases {
				for _, e := range exps {
					if c.k == 32 && x != unit && e.BitLen() > 300 {
						continue // wide exponents at full width are slow; one base has them all
					}
					checkExp(t, m, x, e)
				}
			}
		})
	}
}

// FuzzExpGeneral cross-checks the general loop against big.Int.Exp for
// arbitrary base, exponent and modulus bytes (negNibble's low bits make
// base or exponent negative).
func FuzzExpGeneral(f *testing.F) {
	f.Add([]byte{0xbe, 0xef}, []byte{0x01}, []byte{0xc7, 0x3b}, uint8(0))
	f.Add([]byte{}, []byte{}, []byte{0x02}, uint8(0))
	f.Add([]byte{0x03}, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
		[]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, uint8(0))
	f.Add([]byte{0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00}, []byte{0x80, 0x00, 0x00, 0x00},
		[]byte{0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00}, uint8(1))
	f.Add([]byte{0x09}, []byte{0x05}, []byte{0x03}, uint8(2)) // non-unit, negative exponent: nil
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
		[]byte{0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00},
		[]byte{0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, uint8(3))
	f.Fuzz(func(t *testing.T, baseBytes, expBytes, modBytes []byte, negNibble uint8) {
		if len(modBytes) > 64 || len(expBytes) > 96 {
			t.Skip() // keep one execution in the microseconds
		}
		n := new(big.Int).SetBytes(modBytes)
		m, err := NewModulus(n)
		if err != nil {
			if n.Cmp(big.NewInt(2)) >= 0 {
				t.Fatalf("NewModulus(%s): %v", n, err)
			}
			return
		}
		x, e := new(big.Int).SetBytes(baseBytes), new(big.Int).SetBytes(expBytes)
		if negNibble&1 != 0 {
			x.Neg(x)
		}
		if negNibble&2 != 0 {
			e.Neg(e)
		}
		checkExp(t, m, x, e)
	})
}
