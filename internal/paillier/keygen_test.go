package paillier

import (
	"crypto/rand"
	"errors"
	"math/big"
	mrand "math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

// This file tests key generation's prime search (the Paillier keys' and,
// through Prime, the license signer's) and its two concurrent halves:
// the sieve must find exactly the prime a plain scan finds, and
// the halves must share a caller's reader safely and both stop before
// GenerateKey returns.

// scanWindow is the search without the sieve: every candidate
// 2*a*k + 1 from k0 to the window's end through ProbablyPrime in turn.
func scanWindow(k0, a, hi *big.Int) *big.Int {
	end := new(big.Int).Add(k0, big.NewInt(sieveWindow))
	if end.Cmp(hi) > 0 {
		end.Set(hi)
	}
	twoA := new(big.Int).Lsh(a, 1)
	for k := new(big.Int).Set(k0); k.Cmp(end) < 0; k.Add(k, one) {
		p := new(big.Int).Mul(k, twoA)
		if p.Add(p, one).ProbablyPrime(20) {
			return p
		}
	}
	return nil
}

// checkWindow runs the sieved search and the scan from k0 and holds the
// first to the second and every strike to its prime.
func checkWindow(t *testing.T, k0, a, hi *big.Int) *big.Int {
	t.Helper()
	s := newPrimeSearch(a)
	got := s.primeInWindow(k0, hi)
	if want := scanWindow(k0, a, hi); (got == nil) != (want == nil) || got != nil && got.Cmp(want) != 0 {
		t.Fatalf("a=%s k0=%s: sieve found %v, scan found %v", a, k0, got, want)
	}
	twoA := new(big.Int).Lsh(a, 1)
	c, r := new(big.Int), new(big.Int)
	for i, r0 := range s.struck {
		if r0 == 0 {
			continue
		}
		c.SetInt64(int64(i)).Add(c, k0).Mul(c, twoA).Add(c, one)
		if r.SetUint64(uint64(r0)); r.Mod(c, r).Sign() != 0 {
			t.Fatalf("a=%s k0=%s: index %d struck by %d, which does not divide %s", a, k0, i, r0, c)
		}
	}
	if got != nil && new(big.Int).Mod(new(big.Int).Sub(got, one), twoA).Sign() != 0 {
		t.Fatalf("a=%s: 2a does not divide p-1 for p=%s", a, got)
	}
	return got
}

// nextPrime returns the least prime >= x.
func nextPrime(x *big.Int) *big.Int {
	p := new(big.Int).Set(x)
	for !p.ProbablyPrime(20) {
		p.Add(p, one)
	}
	return p
}

func TestSubgroupPrimeSieveMatchesScan(t *testing.T) {
	rng := mrand.New(mrand.NewSource(29))
	for _, w := range []struct{ bits, aBits, starts int }{
		{64, 16, 200}, // a 128-bit key's primes
		{256, 32, 40},
		{1024, 256, 3}, // a 2048-bit key's
	} {
		// A fixed a with its top two bits set, as rand.Prime draws it.
		a := nextPrime(new(big.Int).Lsh(big.NewInt(3), uint(w.aBits-2)))
		lo, hi := cofactorRange(w.bits, a)
		for s := 0; s < w.starts; s++ {
			k0, err := RandomInRange(rng, lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			p := checkWindow(t, k0, a, hi)
			if p == nil {
				continue
			}
			if p.BitLen() != w.bits || p.Bit(w.bits-2) != 1 {
				t.Fatalf("%d bits: p=%s lacks its top two bits", w.bits, p)
			}
		}
		// A start near the top of the range: the window stops at hi.
		for _, left := range []int64{1, 5, sieveWindow - 1} {
			checkWindow(t, new(big.Int).Sub(hi, big.NewInt(left)), a, hi)
		}
	}
}

// TestPrimeMatchesScan: Prime, the a = 1 search the license signer
// draws from, returns exactly the prime a candidate-by-candidate scan
// returns from the same starts, replayed from a second copy of the
// reader, with its top two bits set.
func TestPrimeMatchesScan(t *testing.T) {
	for _, w := range []struct{ bits, draws int }{{64, 50}, {256, 10}, {992, 2}} {
		lo, hi := cofactorRange(w.bits, one)
		for seed := int64(0); seed < int64(w.draws); seed++ {
			got, err := Prime(mrand.New(mrand.NewSource(seed)), w.bits)
			if err != nil {
				t.Fatal(err)
			}
			replay := mrand.New(mrand.NewSource(seed))
			var want *big.Int
			for want == nil {
				k0, err := RandomInRange(replay, lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				want = scanWindow(k0, one, hi)
			}
			if got.Cmp(want) != 0 {
				t.Fatalf("%d bits, seed %d: Prime returned %s, the scan %s", w.bits, seed, got, want)
			}
			if got.BitLen() != w.bits || got.Bit(w.bits-2) != 1 {
				t.Fatalf("%d bits: p=%s lacks its top two bits", w.bits, got)
			}
		}
	}
	if _, err := Prime(rand.Reader, 16); err == nil {
		t.Fatal("a 16-bit prime, whose candidates reach below the sieve bound, was drawn")
	}
}

// atProcs runs f at GOMAXPROCS procs and restores the old value, as
// parallel.TestAuto toggles it: the window search reads its worker count
// from parallel.Auto at each window.
func atProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// TestPrimeSearchSameAtAnyWorkerCount: a window's survivors are tested
// on every worker, and the seeded searches return the same primes at
// GOMAXPROCS 1 and 2 — a 2048-bit key's half (a 256-bit a) through
// primeWithFactor, the signer's through Prime.
func TestPrimeSearchSameAtAnyWorkerCount(t *testing.T) {
	search := func(a *big.Int, seed int64) *big.Int {
		random := mrand.New(mrand.NewSource(seed))
		var p *big.Int
		var err error
		if a.Cmp(one) == 0 {
			p, err = Prime(random, 1024)
		} else {
			p, err = primeWithFactor(random, 1024, a)
		}
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, a := range searchA() {
		for seed := int64(1); seed <= 4; seed++ {
			var serial, concurrent *big.Int
			atProcs(1, func() { serial = search(a, seed) })
			atProcs(2, func() { concurrent = search(a, seed) })
			if serial.Cmp(concurrent) != 0 {
				t.Fatalf("a of %d bits, seed %d: %s at GOMAXPROCS=1, %s at 2", a.BitLen(), seed, serial, concurrent)
			}
		}
	}
}

// TestPrimeInWindowConfirmsFermatPseudoprime opens an a = 1 window at
// 3825123056546413051 = 149491 · 747451 · 34233211, a base-2 Fermat
// (indeed strong) pseudoprime whose factors all exceed the sieve bound:
// the sieve keeps it, the Fermat test passes it, and only the
// ProbablyPrime confirmation stands between it and the result. The
// window must return what the scan returns, at either worker count.
func TestPrimeInWindowConfirmsFermatPseudoprime(t *testing.T) {
	psp, _ := new(big.Int).SetString("3825123056546413051", 10)
	pm1 := new(big.Int).Sub(psp, one)
	if new(big.Int).Exp(two, pm1, psp).Cmp(one) != 0 || psp.ProbablyPrime(20) {
		t.Fatal("3825123056546413051 is not a base-2 Fermat pseudoprime")
	}
	k0 := new(big.Int).Rsh(psp, 1) // 2*k0 + 1 = psp
	hi := new(big.Int).Add(k0, big.NewInt(sieveWindow))
	for _, procs := range []int{1, 2} {
		atProcs(procs, func() {
			s := newPrimeSearch(one)
			got := s.primeInWindow(k0, hi)
			if s.struck[0] != 0 {
				t.Fatalf("the sieve struck the pseudoprime with %d", s.struck[0])
			}
			if want := scanWindow(k0, one, hi); got == nil || got.Cmp(want) != 0 {
				t.Fatalf("GOMAXPROCS=%d: window returned %v, the scan %v", procs, got, want)
			}
		})
	}
}

// TestSubgroupElementMatchesFullExponent: H's half, lifted from mod d,
// is y^(d(d-1)/a) mod d^2 for the y drawn from the same reader bytes, at
// a 2048-bit key's widths and at a test key's.
func TestSubgroupElementMatchesFullExponent(t *testing.T) {
	for _, w := range []struct{ bits, aBits, draws int }{{1024, 256, 3}, {64, 16, 50}} {
		d, a, err := subgroupPrime(mrand.New(mrand.NewSource(int64(w.bits))), w.bits, w.aBits)
		if err != nil {
			t.Fatal(err)
		}
		dSquared := new(big.Int).Mul(d, d)
		e := new(big.Int).Sub(d, one)
		e.Div(e, a).Mul(e, d)
		for seed := int64(0); seed < int64(w.draws); seed++ {
			h, ds, err := subgroupElement(mrand.New(mrand.NewSource(seed)), d, a)
			if err != nil {
				t.Fatal(err)
			}
			y, err := rand.Int(mrand.New(mrand.NewSource(seed)), dSquared)
			if err != nil {
				t.Fatal(err)
			}
			if want := y.Exp(y, e, dSquared); h.Cmp(want) != 0 || ds.Cmp(dSquared) != 0 {
				t.Fatalf("%d bits, seed %d: H's half %s, want %s", w.bits, seed, h, want)
			}
		}
	}
}

// searchA are the factors a TestSieveLeavesFewCandidates and
// BenchmarkPrimeSearch search with: a 256-bit prime, as a 2048-bit
// Paillier key draws it, and 1, Prime's progression.
func searchA() []*big.Int {
	return []*big.Int{nextPrime(new(big.Int).Lsh(big.NewInt(3), 254)), one}
}

// TestSieveLeavesFewCandidates counts the work the sieve leaves the
// primality tests, one base-2 Fermat test per unstruck candidate:
// over 1 024-bit prime searches from seeded readers, as
// primeWithFactor runs them, each window's unstruck candidates up to its
// first prime, or all of them in a window that holds none. A sieve to
// 2^12 leaves about 47 per prime, one to 2^16 about 35.5: ∏(1 − 1/r)
// over the sieve primes times the ~355 candidates per prime at this
// width. The count is the saving; no clock is read. The searches run
// one after another, but each window tests its survivors on every
// worker, so the test occupies all cores while it runs.
func TestSieveLeavesFewCandidates(t *testing.T) {
	const bits, searches, bound = 1024, 150, 38
	as := searchA()
	total := 0
	for _, a := range as {
		count := unstruckPerSearch(t, a, bits, searches)
		t.Logf("a of %d bits: %.1f unstruck candidates per prime", a.BitLen(), float64(count)/searches)
		total += count
	}
	if mean := float64(total) / float64(searches*len(as)); mean >= bound {
		t.Fatalf("%.1f unstruck candidates per prime over %d searches, want < %d", mean, searches*len(as), bound)
	}
}

// unstruckPerSearch runs primeWithFactor's window loop from the readers
// seeded 1 to searches and returns the unstruck candidates up to each
// prime: those a serial scan tests (a parallel one may test one more per
// other worker past the prime).
func unstruckPerSearch(t *testing.T, a *big.Int, bits, searches int) int {
	lo, hi := cofactorRange(bits, a)
	twoA := new(big.Int).Lsh(a, 1)
	s := newPrimeSearch(a)
	count := 0
	for seed := int64(1); seed <= int64(searches); seed++ {
		random := mrand.New(mrand.NewSource(seed))
		for p := (*big.Int)(nil); p == nil; {
			k0, err := RandomInRange(random, lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			p = s.primeInWindow(k0, hi)
			tested := s.struck[:] // hi never cuts a window short at this width
			if p != nil {
				last := new(big.Int).Sub(p, one)
				tested = tested[:last.Div(last, twoA).Sub(last, k0).Int64()+1]
			}
			for _, r := range tested {
				if r == 0 {
					count++
				}
			}
		}
	}
	return count
}

// FuzzSubgroupSieve holds the sieved window to the plain scan for
// arbitrary starts and arbitrary (not necessarily prime) a at small
// widths, where the candidates are short enough to scan in full.
func FuzzSubgroupSieve(f *testing.F) {
	f.Add([]byte{0x01}, []byte{0x03})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, []byte{0xc0, 0x01})
	f.Add([]byte{0x12, 0x34, 0x56, 0x78, 0x9a}, []byte{0x0f, 0xf1}) // a = 4081, a sieve prime
	f.Add([]byte{0x9e, 0x37, 0x79, 0xb9}, []byte{0x01})             // a = 1, Prime's progression
	f.Add([]byte{0x01}, []byte{0xff, 0xf1})                         // a = 65521, the largest sieve prime
	f.Add([]byte{}, []byte{0x01})                                   // the first start above the bound
	f.Fuzz(func(t *testing.T, start, aRaw []byte) {
		if len(start) > 8 || len(aRaw) > 3 {
			t.Skip()
		}
		a := new(big.Int).SetBytes(aRaw)
		if a.Sign() == 0 {
			t.Skip()
		}
		// Every candidate above sieveBound, as in a key.
		k0 := new(big.Int).SetBytes(start)
		k0.Add(k0, big.NewInt(sieveBound))
		checkWindow(t, k0, a, new(big.Int).Add(k0, big.NewInt(sieveWindow)))
	})
}

// countingReader is crypto/rand behind a byte count that nothing
// synchronises: two goroutines reading it at once are a data race.
type countingReader struct{ n int }

func (c *countingReader) Read(p []byte) (int, error) {
	c.n += len(p)
	return rand.Read(p)
}

// TestGenerateKeySharesReader: the two halves read a caller's reader
// that is not safe for concurrent use (run under -race).
func TestGenerateKeySharesReader(t *testing.T) {
	r := &countingReader{}
	sk, err := GenerateKey(r, 512)
	if err != nil {
		t.Fatal(err)
	}
	if sk.N.BitLen() != 512 || r.n == 0 {
		t.Fatalf("%d-bit modulus from %d bytes read", sk.N.BitLen(), r.n)
	}
	if got := mustDecrypt(t, sk, mustEncrypt(t, &sk.PublicKey, -77)); got != -77 {
		t.Fatalf("round trip: got %d", got)
	}
}

// failingReader serves crypto/rand except for one read: the first read
// of more than one byte that reaches past byte at of the stream fails.
// (One-byte reads are crypto/rand.Prime's optional first byte, whose
// error it ignores.) It records the sizes it served and every read made
// after the test marks the call returned. Nothing but SharedReader
// serialises it.
type failingReader struct {
	at, n      int
	failedSize int // size of the failed read; 0 before it
	served     map[int]bool
	returned   atomic.Bool
	late       atomic.Int32
}

func (f *failingReader) Read(p []byte) (int, error) {
	if f.returned.Load() {
		f.late.Add(1)
	}
	if f.failedSize == 0 && len(p) > 1 && f.n+len(p) > f.at {
		f.failedSize = len(p)
		return 0, errInjected
	}
	f.n += len(p)
	f.served[len(p)] = true
	return rand.Read(p)
}

var errInjected = errors.New("injected read failure")

// TestGenerateKeyHalvesStopTogether fails one read inside key
// generation and checks that the error names the half that read it and
// that GenerateKey returned only after both halves stopped.
//
// At 129 bits p has 64 bits and q 65, and the two halves' reads tell
// them apart by their last draw alone: a's candidates (2 bytes) and the
// window starts (6 bytes) are the same size in both, the draw of H's
// half modulo d^2 is 16 bytes for p and 17 for q. A half whose search
// fails never makes that draw; the other half must have made it before
// GenerateKey returned. The first pass of GenerateKey's loop reads at
// least (2+6+16)+(2+6+17) = 49 bytes, so a failure placed before byte
// 49 always lands in it, and no retry of the loop muddles the record.
func TestGenerateKeyHalvesStopTogether(t *testing.T) {
	const bits, pDraw, qDraw, firstPass = 129, 16, 17, 49
	failedIn := map[string]int{}
	var readers []*failingReader
	// Every offset of the first pass, four times over: which half a given
	// offset falls in is the scheduler's choice, so both halves' searches
	// get failures without the test choosing.
	for run := 0; run < 4*firstPass; run++ {
		f := &failingReader{at: run % firstPass, served: map[int]bool{}}
		readers = append(readers, f)
		_, err := GenerateKey(f, bits)
		f.returned.Store(true)
		if err == nil {
			t.Fatalf("at=%d: GenerateKey succeeded past a failed read", f.at)
		}
		if !errors.Is(err, errInjected) {
			t.Fatalf("at=%d: error %q does not carry the read failure", f.at, err)
		}
		var half string
		switch {
		case f.failedSize == pDraw:
			half = "generate p"
		case f.failedSize == qDraw:
			half = "generate q"
		case f.served[qDraw] && !f.served[pDraw]:
			half = "generate p"
		case f.served[pDraw] && !f.served[qDraw]:
			half = "generate q"
		default:
			t.Fatalf("at=%d: a %d-byte search read failed, and draws served p:%v q:%v — the other half did not finish before GenerateKey returned",
				f.at, f.failedSize, f.served[pDraw], f.served[qDraw])
		}
		if !strings.HasPrefix(err.Error(), half+": ") {
			t.Fatalf("at=%d: the read failed in %q's half, error %q", f.at, half, err)
		}
		if f.failedSize != pDraw && f.failedSize != qDraw {
			failedIn[half]++
		}
	}
	if failedIn["generate p"] == 0 || failedIn["generate q"] == 0 {
		t.Fatalf("failures landed in the searches as %v: need both halves", failedIn)
	}
	for _, f := range readers {
		if n := f.late.Load(); n != 0 {
			t.Fatalf("at=%d: %d reads after GenerateKey returned", f.at, n)
		}
	}
}
