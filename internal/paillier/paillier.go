// Package paillier implements the Paillier public-key cryptosystem
// (Paillier, EUROCRYPT'99) together with the additively homomorphic
// operations PISA relies on: ciphertext addition, subtraction, scalar
// multiplication and re-randomisation.
//
// Plaintexts are signed integers encoded into Z_n with the centred
// representation: a decrypted residue v in (n/2, n) is interpreted as
// v - n. This gives a usable plaintext domain of (-n/2, n/2), which is
// what the PISA protocol needs to carry negative interference
// indicators and blinded values.
//
// The generator is fixed to g = n + 1, the standard choice that makes
// encryption cost a single modular exponentiation:
//
//	E(m, r) = (1 + m*n) * r^n  mod n^2
//
// Decryption uses the usual L-function with a CRT speed-up over the
// prime factors of n, and — for ciphertexts whose nonces are powers of
// the key's published base H — an exponent a quarter as wide (see
// PrivateKey and DESIGN.md §10).
package paillier

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"
	"math/bits"
	"sync"
	"sync/atomic"

	"pisa/internal/fbexp"
	"pisa/internal/obs"
	"pisa/internal/parallel"
)

// Errors returned by the package.
var (
	ErrMessageTooLarge   = errors.New("paillier: message outside plaintext domain (-n/2, n/2)")
	ErrInvalidCiphertext = errors.New("paillier: ciphertext outside Z_{n^2} or not invertible")
	ErrKeyTooSmall       = errors.New("paillier: modulus must be at least 128 bits")
	ErrInvalidNonceBase  = errors.New("paillier: nonce base H outside (1, n^2) or not a unit")
	ErrNoNonceBase       = errors.New("paillier: key has no nonce base H")
)

var (
	one = big.NewInt(1)
	two = big.NewInt(2)
)

// Nonce table geometry. The window is the height of the table's comb
// (see internal/fbexp; 8 is the height that needs the fewest operations
// per nonce inside the table's size budget); the short-exponent width
// follows the 2·λ rule — 256 bits gives 112+ bits of security at a
// 2048-bit modulus, matching the key's own strength.
const (
	DefaultFastExpWindow = 8
	DefaultShortExpBits  = 256

	// fastExpEntries is the nonce table's size budget: the engine fits
	// as many comb blocks as it allows (11 of height 8; 1.37 MiB at a
	// 2048-bit n, 33 half-width operations per nonce).
	fastExpEntries = 2816
	// leanExpWindow and leanExpEntries are the comb of a key prepared
	// with PrepareLean: two blocks of height 6, 63 KiB at a 2048-bit n,
	// 63 operations per nonce. Height 6 is the knee of the trade for a
	// key that draws a nonce or two per request: one block of height 8
	// needs 62 operations from twice the bytes, and height 5 halves the
	// bytes again for 13 more operations.
	leanExpWindow  = 6
	leanExpEntries = 126
)

// shortExpLimit bounds a nonce exponent: s is drawn from [1, 2^256).
var shortExpLimit = new(big.Int).Lsh(one, DefaultShortExpBits)

// PublicKey holds the Paillier public key (n, g) with g = n+1 implied,
// plus cached derived values.
type PublicKey struct {
	// N is the public modulus n = p*q.
	N *big.Int
	// H is the nonce base the key owner publishes: an n-th residue
	// mod n^2 whose order (a_p*a_q, about 2^512) only the owner knows.
	// Nonce factors are h^s for a short random s, so every ciphertext
	// built from Encrypt, NewNonceBatch and the homomorphic operations on
	// them carries a nonce inside <H>, which is what lets the owner
	// decrypt with a_p and a_q in place of p-1 and q-1 (DESIGN.md §10).
	// Every key carries it: Check refuses a key without H, and drawing a
	// nonce under one fails with ErrNoNonceBase.
	H *big.Int

	nSquared *big.Int // n^2
	half     *big.Int // floor(n/2), threshold for centred decoding
	// mod is n prepared for exponentiation modulo n^2 (its reduction
	// constant): what every power of a ciphertext or a nonce base runs
	// on, shared by the nonce table and every PowerTable of the key.
	mod *fbexp.Modulus
	// nt holds the comb table every nonce of the key comes from, built
	// by the first one, and n^2 prepared for the lane kernel. A pointer,
	// so that copies of a prepared key share them and the key itself
	// stays copyable.
	nt *nonceTable
}

// nonceTable is a key's nonce table, built at most once: tab is set,
// under mu, by the first draw whose build succeeds and never changes
// after, so later draws read it without the lock. lean, set by
// PrepareLean, gives that build the lean entry budget. lane is n^2 for
// the lane kernel, built by the first caller that needs it (the full
// comb's build, ScalarMulBatch, PowerTables) and nil on a CPU without
// the kernel.
type nonceTable struct {
	mu   sync.Mutex
	lean atomic.Bool
	tab  atomic.Pointer[nonceComb]

	laneOnce sync.Once
	lane     *laneModulus
}

// nonceComb is a built nonce table: the lane comb where the key's full
// comb runs on the kernel, the fbexp comb otherwise (a lean table, a
// CPU without the kernel, the kernel switched off at the build).
type nonceComb struct {
	fb   *fbexp.Table
	lane *laneComb
}

// exp returns H^s for every s of ss, each in [0, 2^DefaultShortExpBits),
// over up to workers goroutines: on the lane comb in runs of laneWidth
// exponents, the last one padded, and on the fbexp comb one at a time.
func (c *nonceComb) exp(ss []*big.Int, workers int) []*big.Int {
	out := make([]*big.Int, len(ss))
	if c.lane == nil {
		_ = parallel.ForChunks(workers, len(ss), func(lo, hi int) error {
			for i := lo; i < hi; i++ {
				out[i] = c.fb.Exp(ss[i])
			}
			return nil
		})
		return out
	}
	_ = parallel.For(workers, (len(ss)+laneWidth-1)/laneWidth, func(r int) error {
		lo := r * laneWidth
		hi := min(lo+laneWidth, len(ss))
		copy(out[lo:hi], c.lane.exp(ss[lo:hi]))
		laneRuns.nonce.add(hi - lo)
		return nil
	})
	return out
}

// sizeBytes reports the table's memory footprint.
func (c *nonceComb) sizeBytes() int {
	if c.lane != nil {
		return c.lane.sizeBytes()
	}
	return c.fb.SizeBytes()
}

// PrivateKey holds the Paillier key pair: the prime factors of n, each
// with the constants of its half of the CRT decryption.
type PrivateKey struct {
	PublicKey

	p, q  crtPrime
	qInvP *big.Int // q^{-1} mod p, for CRT recombination
}

// crtPrime is one prime factor d of n with what decryption modulo d^2
// needs. a divides d-1 and is the order of H modulo d^2: for a
// ciphertext c = (1+n)^m * H^s, c^a = (1+n)^(m*a) already — the nonce
// is gone after an exponent of a's width, not (d-1)'s.
type crtPrime struct {
	d, dSquared *big.Int
	a           *big.Int // order of H mod d^2
	cofactor    *big.Int // (d-1)/a
	invShort    *big.Int // L_d(g^a mod d^2)^{-1} mod d
	invFull     *big.Int // L_d(g^(d-1) mod d^2)^{-1} mod d
	// lane is d^2 prepared for the eight-lane kernel that DecryptBatch
	// raises ciphertexts to a on; nil on a CPU without it.
	lane *laneModulus
}

// Ciphertext is a Paillier ciphertext: an element of Z_{n^2}^*.
// The zero value is not usable; ciphertexts are produced by Encrypt
// and the homomorphic operations.
type Ciphertext struct {
	// C is the ciphertext value in [0, n^2).
	C *big.Int
}

// GenerateKey creates a Paillier key pair whose modulus n has the
// given bit length, together with its nonce base H. Each prime has the
// form 2*a*k + 1 for a prime a of DefaultShortExpBits bits (at most a
// quarter of the prime, for small test keys) and a random cofactor k,
// and H generates the subgroup of n-th residues of order a_p*a_q.
// Primes are drawn from random, which must be a cryptographically
// secure source (crypto/rand.Reader in production). The two halves of
// the key are drawn on two goroutines at once, which share random
// through SharedReader, so it need not be safe for concurrent use;
// GenerateKey returns only after both have stopped.
func GenerateKey(random io.Reader, bits int) (*PrivateKey, error) {
	if bits < 128 {
		return nil, ErrKeyTooSmall
	}
	random = SharedReader(random)
	aBits := DefaultShortExpBits
	if aBits > bits/8 {
		aBits = bits / 8
	}
	for {
		var p, q keyHalf
		var errP, errQ error
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			p, errP = newKeyHalf(random, bits/2, aBits)
		}()
		go func() {
			defer wg.Done()
			q, errQ = newKeyHalf(random, bits-bits/2, aBits)
		}()
		wg.Wait()
		if errP != nil {
			return nil, fmt.Errorf("generate p: %w", errP)
		}
		if errQ != nil {
			return nil, fmt.Errorf("generate q: %w", errQ)
		}
		if p.d.Cmp(q.d) == 0 || p.a.Cmp(q.a) == 0 {
			continue
		}
		n := new(big.Int).Mul(p.d, q.d)
		if n.BitLen() != bits {
			continue
		}
		// gcd(n, (p-1)(q-1)) must be 1; guaranteed when p, q are
		// distinct primes of the same size, but verify anyway.
		phi := new(big.Int).Mul(new(big.Int).Sub(p.d, one), new(big.Int).Sub(q.d, one))
		if new(big.Int).GCD(nil, nil, n, phi).Cmp(one) != 0 {
			continue
		}
		// H is a random element of the subgroup of order a_p*a_q — all
		// n-th residues, a_p*a_q being prime to n — assembled from its
		// halves modulo p^2 and q^2, a quarter of the cost of one
		// y^(n*phi/(a_p*a_q)) mod n^2. newPrivateKey refuses a half that
		// landed on 1 (one draw in a_p) and primes where a_q divides p-1
		// or a_p divides q-1; both are as good as impossible at real
		// sizes and merely rare at test sizes, so start over.
		// CRT: h = hq + q^2 * ((hp - hq) * q^-2 mod p^2)
		h := new(big.Int).Sub(p.h, q.h)
		h.Mul(h, new(big.Int).ModInverse(q.dSquared, p.dSquared))
		h.Mod(h, p.dSquared)
		h.Mul(h, q.dSquared)
		h.Add(h, q.h)
		if sk, err := newPrivateKey(p.d, q.d, p.a, q.a, h); err == nil {
			return sk, nil
		}
	}
}

// keyHalf is one prime factor d of a key with its subgroup order a and
// the half of H modulo d^2.
type keyHalf struct {
	d, a, h, dSquared *big.Int
}

// newKeyHalf draws a prime of the given width with its subgroup order
// (subgroupPrime) and a random element of that order modulo its square.
func newKeyHalf(random io.Reader, bits, aBits int) (keyHalf, error) {
	d, a, err := subgroupPrime(random, bits, aBits)
	if err != nil {
		return keyHalf{}, err
	}
	h, dSquared, err := subgroupElement(random, d, a)
	if err != nil {
		return keyHalf{}, fmt.Errorf("nonce base: %w", err)
	}
	return keyHalf{d: d, a: a, h: h, dSquared: dSquared}, nil
}

// subgroupElement draws a random element of the subgroup of order a of
// Z_{d^2}^*, for a prime a dividing d-1: y^(d*(d-1)/a) mod d^2 for y
// uniform mod d^2. It computes w = (y mod d)^((d-1)/a) mod d, then
// w^d mod d^2, which is the same value at about two thirds of the cost:
// y^((d-1)/a) is w + t*d for some t, and (w + t*d)^d ≡ w^d (mod d^2),
// every other term of the binomial expansion carrying d^2.
func subgroupElement(random io.Reader, d, a *big.Int) (h, dSquared *big.Int, err error) {
	dSquared = new(big.Int).Mul(d, d)
	y, err := rand.Int(random, dSquared)
	if err != nil {
		return nil, nil, err
	}
	e := new(big.Int).Sub(d, one)
	e.Div(e, a)
	w := new(big.Int).Exp(y.Mod(y, d), e, d)
	return w.Exp(w, d, dSquared), dSquared, nil
}

// subgroupPrime draws a prime a of aBits bits and then a prime
// p = 2*a*k + 1 of exactly bits bits (primeWithFactor).
func subgroupPrime(random io.Reader, bits, aBits int) (p, a *big.Int, err error) {
	a, err = rand.Prime(random, aBits)
	if err != nil {
		return nil, nil, err
	}
	p, err = primeWithFactor(random, bits, a)
	return p, a, err
}

// Prime returns a prime of exactly bits bits with its top two bits set,
// so that the product of two such primes has exactly twice the bits. It
// runs the sieved window search of the Paillier primes with a = 1
// (primeWithFactor), and draws from random, which must be a
// cryptographically secure source. bits must be at least minPrimeBits,
// so that every candidate exceeds the sieve bound.
func Prime(random io.Reader, bits int) (*big.Int, error) {
	if bits < minPrimeBits {
		return nil, fmt.Errorf("paillier: prime of %d bits too small (min %d)", bits, minPrimeBits)
	}
	return primeWithFactor(random, bits, one)
}

// primeWithFactor draws a prime p = 2*a*k + 1 of exactly bits bits with
// its top two bits set (as rand.Prime sets them). Each random start k0
// opens a window of cofactors that primeInWindow searches; a window
// without a prime costs a new start.
func primeWithFactor(random io.Reader, bits int, a *big.Int) (*big.Int, error) {
	lo, hi := cofactorRange(bits, a)
	s := newPrimeSearch(a)
	for {
		k0, err := RandomInRange(random, lo, hi)
		if err != nil {
			return nil, err
		}
		if p := s.primeInWindow(k0, hi); p != nil {
			return p, nil
		}
	}
}

// cofactorRange returns the cofactors k in [lo, hi) for which 2*a*k + 1
// has exactly bits bits with the top two set.
func cofactorRange(bits int, a *big.Int) (lo, hi *big.Int) {
	twoA := new(big.Int).Lsh(a, 1)
	lo = new(big.Int).Lsh(big.NewInt(3), uint(bits-2))
	lo.Div(lo, twoA).Add(lo, one)
	hi = new(big.Int).Lsh(one, uint(bits))
	hi.Div(hi, twoA)
	return lo, hi
}

// The prime search is incremental: from a random start it sieves a
// window of consecutive candidates against the odd primes below
// sieveBound and hands only the survivors, in ascending order, to
// ProbablyPrime — about one candidate in ten at this bound, against
// the one in four that ProbablyPrime's own trial division (up to 53)
// lets through to a Miller–Rabin round. A prime is returned with
// probability proportional to the run of composites below it, a bias
// Brandt and Damgård (CRYPTO '92) bound; DESIGN.md §10 has the
// argument and the sizing.
const (
	sieveWindow = 1024
	sieveBits   = 16
	sieveBound  = 1 << sieveBits
	// minPrimeBits is the narrowest prime Prime draws: with its top two
	// bits set, a candidate of sieveBits+1 bits is at least
	// 3·2^(sieveBits-1), above every sieve prime, so a struck candidate
	// is never the sieve prime itself.
	minPrimeBits = sieveBits + 1
	// confirmRounds is the number of random-base Miller–Rabin rounds a
	// survivor gets besides ProbablyPrime's base-2 round and Lucas test:
	// FIPS 186-5 Table B.1's count for the primes of a 2048-bit modulus
	// when a Lucas test follows. A composite survivor almost always
	// fails its first round, so the count is paid by the prime alone.
	// Input this package did not draw (a decoded key) keeps
	// ProbablyPrime(20).
	confirmRounds = 4
)

// sievePrimes are the odd primes below sieveBound, and sieveGroups cut
// them into consecutive runs whose product fits in 64 bits: x mod r for
// every sieve prime r is then one 64-bit division per run and 64-bit
// limb of x, and one per prime (residues).
var sievePrimes, sieveGroups = func() ([]uint32, []sieveGroup) {
	composite := make([]bool, sieveBound)
	var primes []uint32
	for r := 3; r < sieveBound; r += 2 {
		if composite[r] {
			continue
		}
		primes = append(primes, uint32(r))
		for m := r * r; m < sieveBound; m += 2 * r {
			composite[m] = true
		}
	}
	var groups []sieveGroup
	g := sieveGroup{m: 1}
	for j, r := range primes {
		if hi, _ := bits.Mul64(g.m, uint64(r)); hi != 0 {
			groups = append(groups, g)
			g = sieveGroup{m: 1}
		}
		g.m *= uint64(r)
		g.end = j + 1
	}
	return primes, append(groups, g)
}()

// sieveGroup is the run of sievePrimes that ends before index end, with
// the product m of its primes.
type sieveGroup struct {
	m   uint64
	end int
}

// primeSearch is one search's sieve state. a is fixed for the whole
// search, so −(2a)⁻¹ mod r is computed once per sieve prime; a window
// then costs the residues of its start and the strikes.
type primeSearch struct {
	twoA *big.Int
	// negInv[j] is −(2a)⁻¹ mod sievePrimes[j], or 0 where the prime
	// divides a: every candidate is then 1 modulo it.
	negInv []uint32
	res    []uint32 // residues' output
	buf    []byte   // residues' big-endian copy of its argument
	// struck[i] is an odd prime below sieveBound that divides the
	// window's candidate at k0+i, or 0 when none does.
	struck [sieveWindow]uint16
	// survivors are the window's unstruck offsets i, ascending.
	survivors []uint16
}

func newPrimeSearch(a *big.Int) *primeSearch {
	s := &primeSearch{
		twoA:   new(big.Int).Lsh(a, 1),
		negInv: make([]uint32, len(sievePrimes)),
		res:    make([]uint32, len(sievePrimes)),
	}
	s.residues(s.twoA)
	for j, r := range sievePrimes {
		if x := s.res[j]; x != 0 {
			s.negInv[j] = r - inverseMod(x, r)
		}
	}
	return s
}

// residues sets s.res[j] to x mod sievePrimes[j].
func (s *primeSearch) residues(x *big.Int) {
	n := (x.BitLen() + 63) / 64 * 8
	if cap(s.buf) < n {
		s.buf = make([]byte, n)
	}
	buf := x.FillBytes(s.buf[:n])
	start := 0
	for _, g := range sieveGroups {
		var rem uint64
		for i := 0; i < n; i += 8 {
			_, rem = bits.Div64(rem, binary.BigEndian.Uint64(buf[i:]), g.m)
		}
		for j := start; j < g.end; j++ {
			s.res[j] = uint32(rem % uint64(sievePrimes[j]))
		}
		start = g.end
	}
}

// primeInWindow returns the first prime p = 2*a*k + 1 with k in
// [k0, min(k0+sieveWindow, hi)), or nil when the window holds none. It
// first fills s.struck: a sieve prime r strikes every
// i ≡ −p0·(2a)⁻¹ = −k0 − (2a)⁻¹ (mod r), p0 = 2*a*k0 + 1 being the
// window's first candidate. Every candidate must exceed sieveBound (p
// has at least 64 bits in a Paillier key and minPrimeBits from Prime),
// so a struck one is composite. The candidates left at 0 get a base-2
// Fermat test on every worker (parallel.First), which finds the lowest
// one to pass; that one is confirmed with ProbablyPrime(confirmRounds),
// and a Fermat pseudoprime that fails it resumes the scan above itself.
// Every prime passes the Fermat test, so the window returns the first
// survivor ProbablyPrime accepts, whatever the worker count.
func (s *primeSearch) primeInWindow(k0, hi *big.Int) *big.Int {
	width := sieveWindow
	if left := new(big.Int).Sub(hi, k0); left.Cmp(big.NewInt(sieveWindow)) < 0 {
		width = int(left.Int64())
	}
	s.struck = [sieveWindow]uint16{}
	s.residues(k0)
	for j, r := range sievePrimes {
		if s.negInv[j] == 0 {
			continue
		}
		for i := (s.negInv[j] + r - s.res[j]) % r; int(i) < width; i += r {
			s.struck[i] = uint16(r)
		}
	}
	s.survivors = s.survivors[:0]
	for i := 0; i < width; i++ {
		if s.struck[i] == 0 {
			s.survivors = append(s.survivors, uint16(i))
		}
	}
	candidate := func(i uint16) *big.Int {
		p := big.NewInt(int64(i))
		return p.Add(p, k0).Mul(p, s.twoA).Add(p, one)
	}
	for left := s.survivors; len(left) > 0; {
		j := parallel.First(parallel.Auto(), len(left), func(j int) bool {
			p := candidate(left[j])
			pm1 := new(big.Int).Sub(p, one)
			return pm1.Exp(two, pm1, p).Cmp(one) == 0
		})
		if j < 0 {
			return nil
		}
		if p := candidate(left[j]); p.ProbablyPrime(confirmRounds) {
			return p
		}
		left = left[j+1:]
	}
	return nil
}

// inverseMod returns x⁻¹ mod r for a prime r and 0 < x < r,
// by the extended Euclidean algorithm.
func inverseMod(x, r uint32) uint32 {
	t, newT := int64(0), int64(1)
	g, newG := int64(r), int64(x)
	for newG != 0 {
		q := g / newG
		t, newT = newT, t-q*newT
		g, newG = newG, g-q*newG
	}
	if t < 0 {
		t += int64(r)
	}
	return uint32(t)
}

// newPrivateKey derives all cached fields from the prime factors and
// the subgroup description (ap, aq, h), verifying the latter: ap | p-1,
// aq | q-1, h a unit in (1, n^2), h^ap = 1 mod p^2 and h^aq = 1 mod
// q^2 — the condition under which the short exponent strips every
// nonce h^s — and h != 1 modulo either square.
func newPrivateKey(p, q, ap, aq, h *big.Int) (*PrivateKey, error) {
	if ap == nil || aq == nil || h == nil {
		return nil, errors.New("paillier: a private key needs its subgroup orders and nonce base")
	}
	n := new(big.Int).Mul(p, q)
	sk := &PrivateKey{PublicKey: PublicKey{N: n, H: h}}
	sk.ensureCache()
	if err := sk.PublicKey.checkH(); err != nil {
		return nil, err
	}
	var err error
	if sk.p, err = newCRTPrime(n, p, ap, h); err != nil {
		return nil, err
	}
	if sk.q, err = newCRTPrime(n, q, aq, h); err != nil {
		return nil, err
	}
	sk.qInvP = new(big.Int).ModInverse(q, p)
	return sk, nil
}

// newCRTPrime fills the decryption constants of the prime factor d.
func newCRTPrime(n, d, a, h *big.Int) (crtPrime, error) {
	dMinusOne := new(big.Int).Sub(d, one)
	if a.Sign() <= 0 || new(big.Int).Rem(dMinusOne, a).Sign() != 0 {
		return crtPrime{}, errors.New("paillier: subgroup order does not divide p-1")
	}
	c := crtPrime{
		d:        new(big.Int).Set(d),
		dSquared: new(big.Int).Mul(d, d),
		a:        new(big.Int).Set(a),
		cofactor: new(big.Int).Quo(dMinusOne, a),
	}
	hd := new(big.Int).Mod(h, c.dSquared)
	if hd.Cmp(one) == 0 || hd.Exp(hd, a, c.dSquared).Cmp(one) != 0 {
		return crtPrime{}, errors.New("paillier: nonce base does not have the declared order")
	}
	// inv = L_d(g^e mod d^2)^{-1} mod d for e = a and e = d-1: what
	// turns L_d(c^e) = m * L_d(g^e) back into m mod d. With g = n+1,
	// g^e = 1 + e*n modulo n^2 and so modulo d^2, and L_d of it is
	// e*(n/d) mod d.
	cofactorN := new(big.Int).Quo(n, d)
	inv := func(e *big.Int) *big.Int {
		l := new(big.Int).Mul(e, cofactorN)
		return l.ModInverse(l.Mod(l, d), d)
	}
	c.invShort, c.invFull = inv(a), inv(dMinusOne)
	c.lane = newLaneModulus(c.dSquared)
	return c, nil
}

// squareLanes returns n^2 prepared for the lane kernel, building it on
// the first call, or nil where the lane paths do not run (lanesOn) or
// n^2 is outside the kernel's range.
func (pk *PublicKey) squareLanes() *laneModulus {
	if !lanesOn() {
		return nil
	}
	pk.ensureCache()
	nt := pk.nt
	nt.laneOnce.Do(func() { nt.lane = newLaneModulus(pk.nSquared) })
	return nt.lane
}

// Public returns the public half of the key.
func (sk *PrivateKey) Public() *PublicKey { return &sk.PublicKey }

// ensureCache lazily fills derived fields on keys that were
// deserialised (e.g. received over gob with only N and H populated). The
// write is unsynchronised: a key that several goroutines will use must
// be prepared (Prepare) before it is shared.
func (pk *PublicKey) ensureCache() {
	if pk.nSquared == nil {
		pk.nSquared = new(big.Int).Mul(pk.N, pk.N)
		pk.half = new(big.Int).Rsh(pk.N, 1)
		// Refused only for n < 2, a modulus under which validate accepts
		// no ciphertext and checkH no base, so nothing reaches mod.
		pk.mod, _ = fbexp.NewModulus(pk.N)
		pk.nt = new(nonceTable)
	}
}

// Prepare fills the derived fields (n^2, n/2, the reduction constant of
// the exponentiation kernel, the slot of the nonce table) now instead of
// on first use and returns pk. A key that crossed a socket or came out
// of a store carries only N and H; whoever receives it calls Prepare
// before handing the key to worker goroutines. After that the only write
// left is the nonce table's build, which is synchronised, and a value
// copy of the key shares the table. Prepare on a prepared key only reads.
func (pk *PublicKey) Prepare() *PublicKey {
	pk.ensureCache()
	return pk
}

// PrepareLean is Prepare for a key that draws a nonce or two per
// request — an SU key, which the STP and the license issuer encrypt a
// handful of answer ciphertexts under — and returns pk. Its first nonce
// builds a comb of height leanExpWindow and leanExpEntries entries
// instead of fastExpEntries of height 8: 22x less memory per key for 30
// more half-width operations per nonce. The table holds powers of the
// same base, so every nonce is the same H^s the full comb gives and
// decrypts as short. A key whose table is already built keeps it. Like
// Prepare, call it before sharing the key; on a prepared key it is safe
// while other goroutines draw.
func (pk *PublicKey) PrepareLean() *PublicKey {
	pk.ensureCache()
	pk.nt.lean.Store(true)
	return pk
}

// nonces counts every nonce factor drawn (newRn): it is the number of
// fresh randomisations the process paid for, and per request it is a
// protocol constant (DESIGN.md §10's ledger), so a path that quietly
// went back to one encryption per element shows as a count.
// nonceTables counts key objects whose first nonce built their table,
// by comb: one per key that encrypts, so a count that keeps growing
// means keys are being rebuilt per request, and one that grows inside a
// request window shows where a build's milliseconds landed. decrypts
// counts decryptions by the exponent they paid: short when both CRT
// halves stopped at the subgroup order, full when either ran on to p-1
// because the nonce was not a power of the key's H. laneRuns counts the
// lanes of the kernel's runs by operation (DecryptBatch, ScalarMulBatch,
// the lane comb's nonces, ScalarMulTables), used by an element or
// padding: used over used plus padding is the share of the kernel's
// work that was useful. All are bridged to the obs registry, so a
// ciphertext from outside whose nonce is not a power of H (a snapshot
// from before H existed, a sender that drew its own r^n) shows on
// /metrics as a full-decrypt counter that keeps growing.
var (
	nonces      atomic.Uint64
	nonceTables struct{ full, lean atomic.Uint64 }
	decrypts    struct{ short, full atomic.Uint64 }
	laneRuns    struct{ decrypt, scalarMul, nonce, table laneCount }
)

// laneCount counts the lanes of one operation's kernel runs.
type laneCount struct{ used, padding atomic.Uint64 }

// add counts a run of used lanes.
func (c *laneCount) add(used int) {
	c.used.Add(uint64(used))
	c.padding.Add(uint64(laneWidth - used))
}

func init() {
	obs.Default().CounterFunc("pisa_paillier_nonce_total",
		"nonce factors H^s drawn from a key's nonce table (Encrypt, EncryptBatch, NewNonceBatch)",
		nil, nonces.Load)
	const tablesHelp = "key objects whose first nonce built their nonce table, by comb: full = group key (Prepare), lean = SU key (PrepareLean)"
	obs.Default().CounterFunc("pisa_paillier_nonce_tables_total", tablesHelp, obs.Labels{"comb": "full"}, nonceTables.full.Load)
	obs.Default().CounterFunc("pisa_paillier_nonce_tables_total", tablesHelp, obs.Labels{"comb": "lean"}, nonceTables.lean.Load)
	const help = "decryptions by CRT exponent: short = subgroup order (nonce in <H>), full = continued to p-1 (foreign nonce)"
	obs.Default().CounterFunc("pisa_paillier_decrypt_total", help, obs.Labels{"path": "short"}, decrypts.short.Load)
	obs.Default().CounterFunc("pisa_paillier_decrypt_total", help, obs.Labels{"path": "full"}, decrypts.full.Load)
	const lanesHelp = "lanes of the eight-lane kernel's runs by operation (decrypt = DecryptBatch, scalarmul = ScalarMulBatch, nonce = the lane comb, table = ScalarMulTables): used = an element, padding = empty"
	for _, op := range []struct {
		name string
		c    *laneCount
	}{{"decrypt", &laneRuns.decrypt}, {"scalarmul", &laneRuns.scalarMul}, {"nonce", &laneRuns.nonce}, {"table", &laneRuns.table}} {
		obs.Default().CounterFunc("pisa_paillier_lanes_total", lanesHelp, obs.Labels{"op": op.name, "lane": "used"}, op.c.used.Load)
		obs.Default().CounterFunc("pisa_paillier_lanes_total", lanesHelp, obs.Labels{"op": op.name, "lane": "padding"}, op.c.padding.Load)
	}
}

// Nonces reports how many nonce factors this process has drawn: one per
// encryption and per precomputed nonce.
func Nonces() uint64 { return nonces.Load() }

// NonceTables reports how many key objects in this process have built
// their nonce table, full and lean combs together.
func NonceTables() uint64 { return nonceTables.full.Load() + nonceTables.lean.Load() }

// Decrypts reports how many decryptions this process has run on the
// short (subgroup-order) exponent alone and how many continued to the
// full one.
func Decrypts() (short, full uint64) { return decrypts.short.Load(), decrypts.full.Load() }

// NSquared returns n^2, the ciphertext modulus.
func (pk *PublicKey) NSquared() *big.Int {
	pk.ensureCache()
	return pk.nSquared
}

// Bits returns the bit length of the modulus n.
func (pk *PublicKey) Bits() int { return pk.N.BitLen() }

// Equal reports whether two public keys share the same modulus, i.e.
// whether ciphertexts under one are ciphertexts under the other. The
// nonce base is not compared; SameKey does.
func (pk *PublicKey) Equal(other *PublicKey) bool {
	return other != nil && pk.N.Cmp(other.N) == 0
}

// SameKey reports whether two public keys are the same published key:
// modulus and nonce base. Both must carry H, as every checked key does.
func (pk *PublicKey) SameKey(other *PublicKey) bool {
	return pk.Equal(other) && pk.H.Cmp(other.H) == 0
}

// Check validates the public fields of a key that arrived from outside
// (a socket, a store): a modulus of at least 128 bits, and a nonce base
// that is a unit of Z_{n^2} other than 1. A key without H is refused
// (ErrNoNonceBase): every nonce of this package is a power of it.
// Whether H is an n-th residue of the order its owner claims cannot be
// checked without the secret key; a wrong H harms only ciphertexts
// under this key, i.e. its owner.
func (pk *PublicKey) Check() error {
	if pk.N == nil || pk.N.Sign() <= 0 || pk.N.BitLen() < 128 {
		return ErrKeyTooSmall
	}
	return pk.checkH()
}

// checkH is the nonce-base half of Check.
func (pk *PublicKey) checkH() error {
	if pk.H == nil {
		return ErrNoNonceBase
	}
	pk.ensureCache()
	if pk.H.Cmp(one) <= 0 || pk.H.Cmp(pk.nSquared) >= 0 ||
		new(big.Int).GCD(nil, nil, pk.H, pk.N).Cmp(one) != 0 {
		return ErrInvalidNonceBase
	}
	return nil
}

// table returns the key's nonce table, building it on the key's first
// nonce: the comb of the published base H, covering exponents of
// DefaultShortExpBits bits, a fraction of a square-and-multiply per
// nonce (see DESIGN.md §10 for the short-exponent security argument).
// Every copy of a key tables the same H, so nonces drawn by any party
// stay inside the subgroup whose order the owner decrypts with; a key
// without H has no table and draws no nonce (ErrNoNonceBase).
//
// The comb has height DefaultFastExpWindow and fastExpEntries entries,
// or height leanExpWindow and leanExpEntries on a key prepared with
// PrepareLean. Concurrent first draws wait for one build (milliseconds
// to tens of milliseconds at 2048 bits, so never draw a key's first
// nonce under a lock others need); a failed build is left to the next
// draw.
func (pk *PublicKey) table() (*nonceComb, error) {
	if pk.H == nil {
		return nil, ErrNoNonceBase
	}
	pk.ensureCache()
	nt := pk.nt
	if tab := nt.tab.Load(); tab != nil {
		return tab, nil
	}
	nt.mu.Lock()
	defer nt.mu.Unlock()
	if tab := nt.tab.Load(); tab != nil {
		return tab, nil
	}
	h := pk.H
	tab := new(nonceComb)
	if nt.lean.Load() {
		fb, err := fbexp.New(h, pk.mod, leanExpWindow, DefaultShortExpBits, leanExpEntries)
		if err != nil {
			return nil, fmt.Errorf("nonce table: %w", err)
		}
		tab.fb = fb
		nonceTables.lean.Add(1)
	} else {
		if lm := pk.squareLanes(); lm != nil {
			tab.lane = newLaneCombs(lm, []*big.Int{h}, DefaultFastExpWindow, DefaultShortExpBits, fastExpEntries, parallel.Auto())[0]
		} else {
			fb, err := fbexp.New(h, pk.mod, DefaultFastExpWindow, DefaultShortExpBits, fastExpEntries)
			if err != nil {
				return nil, fmt.Errorf("nonce table: %w", err)
			}
			tab.fb = fb
		}
		nonceTables.full.Add(1)
	}
	nt.tab.Store(tab)
	return tab, nil
}

// NonceTableBytes reports the memory footprint of the key's nonce
// table, or 0 while no nonce has been drawn under the key.
func (pk *PublicKey) NonceTableBytes() int {
	if pk.nt == nil {
		return 0
	}
	if tab := pk.nt.tab.Load(); tab != nil {
		return tab.sizeBytes()
	}
	return 0
}

// drawShortExp draws a nonce exponent s uniform in
// [1, 2^DefaultShortExpBits): h^0 = 1 would be a non-blinding nonce.
func drawShortExp(random io.Reader) (*big.Int, error) {
	for {
		s, err := rand.Int(random, shortExpLimit)
		if err != nil {
			return nil, fmt.Errorf("draw short exponent: %w", err)
		}
		if s.Sign() != 0 {
			return s, nil
		}
	}
}

// newRns draws count nonce factors from the key's table: every s in
// index order from random, then H^s mod n^2 for each over up to workers
// goroutines, so the factors are the same at any worker count and on
// either comb. The error of a failed draw names its index.
func (pk *PublicKey) newRns(random io.Reader, count, workers int) ([]*big.Int, error) {
	tab, err := pk.table()
	if err != nil {
		return nil, err
	}
	nonces.Add(uint64(count))
	random = orDefaultRand(random)
	ss := make([]*big.Int, count)
	for i := range ss {
		if ss[i], err = drawShortExp(random); err != nil {
			return nil, &BatchError{Op: "nonce", Index: i, Err: err}
		}
	}
	return tab.exp(ss, workers), nil
}

// encode maps a signed message into Z_n, rejecting values outside the
// centred domain (-n/2, n/2).
func (pk *PublicKey) encode(m *big.Int) (*big.Int, error) {
	pk.ensureCache()
	if m.CmpAbs(pk.half) >= 0 {
		return nil, ErrMessageTooLarge
	}
	v := new(big.Int).Mod(m, pk.N)
	return v, nil
}

// decode maps a residue in [0, n) back to the centred signed domain.
func (pk *PublicKey) decode(v *big.Int) *big.Int {
	pk.ensureCache()
	if v.Cmp(pk.half) > 0 {
		return new(big.Int).Sub(v, pk.N)
	}
	return v
}

// orDefaultRand substitutes crypto/rand for a nil source, so every
// entry point accepts nil as "use the system CSPRNG".
func orDefaultRand(random io.Reader) io.Reader {
	if random == nil {
		return rand.Reader
	}
	return random
}

// Encrypt encrypts the signed message m under pk using a fresh random
// nonce H^s from random (see newRns; the key's first nonce builds its
// table).
func (pk *PublicKey) Encrypt(random io.Reader, m *big.Int) (*Ciphertext, error) {
	rns, err := pk.newRns(random, 1, 1)
	if err != nil {
		return nil, err
	}
	return pk.encryptWithRn(m, rns[0])
}

// encryptWithRn assembles the ciphertext (1 + m*n) * rn mod n^2 from a
// ready-made nonce factor rn.
func (pk *PublicKey) encryptWithRn(m, rn *big.Int) (*Ciphertext, error) {
	enc, err := pk.encode(m)
	if err != nil {
		return nil, err
	}
	return pk.encryptEncoded(enc, rn), nil
}

// encryptEncoded is encryptWithRn for a message already encoded into
// Z_n.
func (pk *PublicKey) encryptEncoded(enc, rn *big.Int) *Ciphertext {
	// (1 + m*n) mod n^2
	gm := new(big.Int).Mul(enc, pk.N)
	gm.Add(gm, one)
	gm.Mod(gm, pk.nSquared)
	c := gm.Mul(gm, rn)
	c.Mod(c, pk.nSquared)
	return &Ciphertext{C: c}
}

// EncryptInt is a convenience wrapper around Encrypt for int64
// messages.
func (pk *PublicKey) EncryptInt(random io.Reader, m int64) (*Ciphertext, error) {
	return pk.Encrypt(random, big.NewInt(m))
}

// decContext is the per-worker CRT decryption context: the key's
// cached CRT constants plus reusable big.Int scratch, so a batch of
// decryptions under one key allocates its intermediates once instead
// of once per ciphertext. Not safe for concurrent use; each worker
// owns its own.
type decContext struct {
	sk               *PrivateKey
	mp, mq, mm, u, r big.Int
}

// newDecContext prepares a decryption context for this key.
func (sk *PrivateKey) newDecContext() *decContext {
	sk.ensureCache()
	return &decContext{sk: sk}
}

// residue sets m to the plaintext of ct modulo the prime c.d and
// reports whether it took the full exponent; see finish for unit.
func (d *decContext) residue(m *big.Int, c *crtPrime, ct *big.Int) (full, unit bool) {
	return d.finish(m, c, d.u.Exp(ct, c.a, c.dSquared))
}

// finish is residue from u = ct^a mod d^2, which it overwrites. Write
// ct = (1+n)^m * t with t in the subgroup of order d-1: then u is
// (1+n)^(m*a) * t^a, and d divides u-1 exactly when t^a = 1 — for every
// nonce in <H>, and for a foreign one with probability a/(d-1). If it
// does not, u^cofactor = ct^(d-1) finishes the textbook decryption; the
// short exponentiation was its first quarter, not wasted work. unit is
// false when d divides ct, and so u: such a ct is not a ciphertext, and
// m is not set. It is checked on the continuation only, which every
// such u takes (u - 1 = -1 mod d).
func (d *decContext) finish(m *big.Int, c *crtPrime, u *big.Int) (full, unit bool) {
	inv := c.invShort
	m.Sub(u, one)
	// m = L_d(u) if the remainder is zero.
	if m.QuoRem(m, c.d, &d.r); d.r.Sign() != 0 {
		if d.r.Rem(u, c.d).Sign() == 0 {
			return true, false
		}
		u.Exp(u, c.cofactor, c.dSquared)
		m.Sub(u, one)
		m.Quo(m, c.d)
		inv, full = c.invFull, true
	}
	m.Mul(m, inv)
	m.Mod(m, c.d)
	return full, true
}

// decrypt runs the CRT decryption using the context's scratch. The
// returned plaintext is freshly allocated (the scratch never escapes).
// A ct that validate passes but that shares a prime with n is refused
// like one outside Z_{n^2}: it encrypts nothing.
func (d *decContext) decrypt(ct *Ciphertext) (*big.Int, error) {
	if err := d.sk.validate(ct); err != nil {
		return nil, err
	}
	fullP, unitP := d.residue(&d.mp, &d.sk.p, ct.C)
	fullQ, unitQ := d.residue(&d.mq, &d.sk.q, ct.C)
	if !unitP || !unitQ {
		return nil, ErrInvalidCiphertext
	}
	return d.combine(fullP, fullQ), nil
}

// combine counts the decryption by the exponents its residues d.mp and
// d.mq took and recombines them into the centred plaintext.
func (d *decContext) combine(fullP, fullQ bool) *big.Int {
	sk := d.sk
	if fullP || fullQ {
		decrypts.full.Add(1)
	} else {
		decrypts.short.Add(1)
	}
	// CRT: m = mq + q * ((mp - mq) * qInvP mod p)
	m := d.mm.Sub(&d.mp, &d.mq)
	m.Mul(m, sk.qInvP)
	m.Mod(m, sk.p.d)
	m.Mul(m, sk.q.d)
	m.Add(m, &d.mq)
	// Centred decode into a fresh integer — m aliases the scratch.
	if m.Cmp(sk.half) > 0 {
		return new(big.Int).Sub(m, sk.N)
	}
	return new(big.Int).Set(m)
}

// Decrypt recovers the signed plaintext from ct, using CRT over the
// prime factors for speed. Callers decrypting many ciphertexts should
// prefer DecryptBatch, which hoists the context setup out of the
// per-ciphertext loop.
func (sk *PrivateKey) Decrypt(ct *Ciphertext) (*big.Int, error) {
	return sk.newDecContext().decrypt(ct)
}

// DecryptInt decrypts and narrows to int64, failing if the plaintext
// does not fit.
func (sk *PrivateKey) DecryptInt(ct *Ciphertext) (int64, error) {
	m, err := sk.Decrypt(ct)
	if err != nil {
		return 0, err
	}
	if !m.IsInt64() {
		return 0, fmt.Errorf("paillier: plaintext %s overflows int64", m)
	}
	return m.Int64(), nil
}

// validate checks that ct is a plausible ciphertext for this key.
func (pk *PublicKey) validate(ct *Ciphertext) error {
	pk.ensureCache()
	if ct == nil || ct.C == nil {
		return ErrInvalidCiphertext
	}
	if ct.C.Sign() <= 0 || ct.C.Cmp(pk.nSquared) >= 0 {
		return ErrInvalidCiphertext
	}
	return nil
}

// Add homomorphically adds two ciphertexts: D(Add(a,b)) = D(a) + D(b).
func (pk *PublicKey) Add(a, b *Ciphertext) (*Ciphertext, error) {
	if err := pk.validate(a); err != nil {
		return nil, err
	}
	if err := pk.validate(b); err != nil {
		return nil, err
	}
	c := new(big.Int).Mul(a.C, b.C)
	c.Mod(c, pk.nSquared)
	return &Ciphertext{C: c}, nil
}

// Sub homomorphically subtracts: D(Sub(a,b)) = D(a) - D(b).
func (pk *PublicKey) Sub(a, b *Ciphertext) (*Ciphertext, error) {
	nb, err := pk.Neg(b)
	if err != nil {
		return nil, err
	}
	return pk.Add(a, nb)
}

// Neg homomorphically negates: D(Neg(a)) = -D(a). Implemented as the
// modular inverse of the ciphertext in Z_{n^2}^*.
func (pk *PublicKey) Neg(a *Ciphertext) (*Ciphertext, error) {
	if err := pk.validate(a); err != nil {
		return nil, err
	}
	inv := new(big.Int).ModInverse(a.C, pk.nSquared)
	if inv == nil {
		return nil, ErrInvalidCiphertext
	}
	return &Ciphertext{C: inv}, nil
}

// ScalarMul homomorphically multiplies the plaintext by the signed
// scalar k: D(ScalarMul(k, a)) = k * D(a).
func (pk *PublicKey) ScalarMul(k *big.Int, a *Ciphertext) (*Ciphertext, error) {
	if err := pk.validate(a); err != nil {
		return nil, err
	}
	// A negative k is the power of the inverse, which only a unit has.
	c := fbexp.Exp(a.C, k, pk.mod)
	if c == nil {
		return nil, ErrInvalidCiphertext
	}
	return &Ciphertext{C: c}, nil
}

// ScalarMulInt is ScalarMul with an int64 scalar.
func (pk *PublicKey) ScalarMulInt(k int64, a *Ciphertext) (*Ciphertext, error) {
	return pk.ScalarMul(big.NewInt(k), a)
}

// AddPlain homomorphically adds the plaintext constant k to a:
// D(AddPlain(a, k)) = D(a) + k. Costs one multiplication, no
// exponentiation, because g = n+1 makes E(k, 1) = 1 + k*n.
func (pk *PublicKey) AddPlain(a *Ciphertext, k *big.Int) (*Ciphertext, error) {
	if err := pk.validate(a); err != nil {
		return nil, err
	}
	enc, err := pk.encode(k)
	if err != nil {
		return nil, err
	}
	gk := new(big.Int).Mul(enc, pk.N)
	gk.Add(gk, one)
	c := gk.Mul(gk, a.C)
	c.Mod(c, pk.nSquared)
	return &Ciphertext{C: c}, nil
}

// Nonce is a precomputed re-randomisation factor, an n-th residue mod
// n^2: H^s from the key's table (NewNonceBatch). The expensive
// exponentiation happens at construction (offline); applying it to a
// ciphertext is a single modular multiplication. This is the mechanism
// behind the paper's cheap request-reuse path (§VI-A: the SU "can
// simply multiply the pre-stored ciphertexts by r^n with a new randomly
// selected r").
type Nonce struct {
	rn *big.Int
}

// RerandomizeWith refreshes a ciphertext with a precomputed nonce:
// one modular multiplication. A nonce must be used at most once;
// reuse links the refreshed ciphertexts.
func (pk *PublicKey) RerandomizeWith(a *Ciphertext, nonce *Nonce) (*Ciphertext, error) {
	if err := pk.validate(a); err != nil {
		return nil, err
	}
	if nonce == nil || nonce.rn == nil {
		return nil, errors.New("paillier: nil nonce")
	}
	c := new(big.Int).Mul(a.C, nonce.rn)
	c.Mod(c, pk.nSquared)
	return &Ciphertext{C: c}, nil
}

// CiphertextBytes returns the size in bytes of a serialised ciphertext
// for this key: ceil(2*bits/8), i.e. 512 bytes for n = 2048 bits.
func (pk *PublicKey) CiphertextBytes() int {
	return (2*pk.N.BitLen() + 7) / 8
}

// Clone returns an independent deep copy of the ciphertext.
func (ct *Ciphertext) Clone() *Ciphertext {
	return &Ciphertext{C: new(big.Int).Set(ct.C)}
}

// CloneCompact returns deep copies of cts for a holder that keeps many
// for long: the values are consecutive ranges of one allocation sized to
// their words exactly, the headers one array each. A Clone apiece retains
// a fifth more (math/big pads a copy by four words and the allocator
// rounds that up), the integer a modular product came out of six times
// its value. The copies are to be read, not written — each is capped at
// its own range, so a write would reallocate it, never reach a
// neighbour — and they are freed together.
func CloneCompact(cts []*Ciphertext) []*Ciphertext {
	words := 0
	for _, ct := range cts {
		words += len(ct.C.Bits())
	}
	slab := make([]big.Word, words)
	ints := make([]big.Int, len(cts))
	copies := make([]Ciphertext, len(cts))
	out := make([]*Ciphertext, len(cts))
	for i, ct := range cts {
		n := copy(slab, ct.C.Bits())
		ints[i].SetBits(slab[:n:n]) // C is in [0, n^2): no sign to carry
		slab = slab[n:]
		copies[i].C = &ints[i]
		out[i] = &copies[i]
	}
	return out
}

// Equal reports whether two ciphertexts are bitwise identical. Note
// that unequal ciphertexts may still decrypt to the same plaintext.
func (ct *Ciphertext) Equal(other *Ciphertext) bool {
	return other != nil && ct.C.Cmp(other.C) == 0
}

// RandomSigned draws a uniformly random signed integer with the given
// bit length (value in [2^(bits-1), 2^bits) with random sign when
// signed, or [0, 2^bits) when positive-only). Used by the PISA
// blinding layer and tests.
func RandomSigned(random io.Reader, bits int, allowNegative bool) (*big.Int, error) {
	random = orDefaultRand(random)
	limit := new(big.Int).Lsh(one, uint(bits))
	v, err := rand.Int(random, limit)
	if err != nil {
		return nil, fmt.Errorf("draw random: %w", err)
	}
	if allowNegative {
		sign, err := rand.Int(random, two)
		if err != nil {
			return nil, fmt.Errorf("draw sign: %w", err)
		}
		if sign.Sign() == 1 {
			v.Neg(v)
		}
	}
	return v, nil
}

// RandomInRange draws a uniform integer in [lo, hi). Panics if hi <= lo.
func RandomInRange(random io.Reader, lo, hi *big.Int) (*big.Int, error) {
	random = orDefaultRand(random)
	span := new(big.Int).Sub(hi, lo)
	if span.Sign() <= 0 {
		return nil, fmt.Errorf("paillier: empty range [%s, %s)", lo, hi)
	}
	v, err := rand.Int(random, span)
	if err != nil {
		return nil, fmt.Errorf("draw random: %w", err)
	}
	return v.Add(v, lo), nil
}
