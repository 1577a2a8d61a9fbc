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
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync"
	"sync/atomic"

	"pisa/internal/fbexp"
	"pisa/internal/obs"
)

// Errors returned by the package.
var (
	ErrMessageTooLarge   = errors.New("paillier: message outside plaintext domain (-n/2, n/2)")
	ErrInvalidCiphertext = errors.New("paillier: ciphertext outside Z_{n^2} or not invertible")
	ErrKeyTooSmall       = errors.New("paillier: modulus must be at least 128 bits")
	ErrInvalidNonceBase  = errors.New("paillier: nonce base H outside (1, n^2) or not a unit")
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
	// 2048-bit n).
	fastExpEntries = 2816
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
	// built from Encrypt, Rerandomize, NewNonce and the homomorphic
	// operations on them carries a nonce inside <H>, which is what lets
	// the owner decrypt with a_p and a_q in place of p-1 and q-1
	// (DESIGN.md §10). Nil on a key that predates the field or was
	// rebuilt from its modulus alone; such a key's first nonce draws a
	// private base x^n instead, whose nonces its owner decrypts with the
	// full exponent.
	H *big.Int

	nSquared *big.Int // n^2
	half     *big.Int // floor(n/2), threshold for centred decoding
	// mod is n prepared for exponentiation modulo n^2 (its reduction
	// constant): what every power of a ciphertext or a nonce base runs
	// on, shared by the nonce table and every PowerTable of the key.
	mod *fbexp.Modulus
	// nt holds the comb table every nonce of the key comes from, built
	// by the first one. A pointer, so that copies of a prepared key
	// share one table and the key itself stays copyable.
	nt *nonceTable
}

// nonceTable is a key's nonce table, built at most once: tab is set,
// under mu, by the first draw whose build succeeds and never changes
// after, so later draws read it without the lock.
type nonceTable struct {
	mu  sync.Mutex
	tab atomic.Pointer[fbexp.Table]
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
// is gone after an exponent of a's width, not (d-1)'s. A key without H
// has a = 1: the first step is the identity and every decryption runs
// the continuation, i.e. the textbook c^(d-1).
type crtPrime struct {
	d, dSquared *big.Int
	a           *big.Int // order of H mod d^2; 1 without H
	cofactor    *big.Int // (d-1)/a
	invShort    *big.Int // L_d(g^a mod d^2)^{-1} mod d
	invFull     *big.Int // L_d(g^(d-1) mod d^2)^{-1} mod d
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
// secure source (crypto/rand.Reader in production).
func GenerateKey(random io.Reader, bits int) (*PrivateKey, error) {
	random = orDefaultRand(random)
	if bits < 128 {
		return nil, ErrKeyTooSmall
	}
	aBits := DefaultShortExpBits
	if aBits > bits/8 {
		aBits = bits / 8
	}
	for {
		p, ap, err := subgroupPrime(random, bits/2, aBits)
		if err != nil {
			return nil, fmt.Errorf("generate p: %w", err)
		}
		q, aq, err := subgroupPrime(random, bits-bits/2, aBits)
		if err != nil {
			return nil, fmt.Errorf("generate q: %w", err)
		}
		if p.Cmp(q) == 0 || ap.Cmp(aq) == 0 {
			continue
		}
		n := new(big.Int).Mul(p, q)
		if n.BitLen() != bits {
			continue
		}
		// gcd(n, (p-1)(q-1)) must be 1; guaranteed when p, q are
		// distinct primes of the same size, but verify anyway.
		phi := new(big.Int).Mul(new(big.Int).Sub(p, one), new(big.Int).Sub(q, one))
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
		hp, pSquared, err := subgroupElement(random, p, ap)
		if err != nil {
			return nil, fmt.Errorf("generate h: %w", err)
		}
		hq, qSquared, err := subgroupElement(random, q, aq)
		if err != nil {
			return nil, fmt.Errorf("generate h: %w", err)
		}
		// CRT: h = hq + q^2 * ((hp - hq) * q^-2 mod p^2)
		h := hp.Sub(hp, hq)
		h.Mul(h, new(big.Int).ModInverse(qSquared, pSquared))
		h.Mod(h, pSquared)
		h.Mul(h, qSquared)
		h.Add(h, hq)
		if sk, err := newPrivateKey(p, q, ap, aq, h); err == nil {
			return sk, nil
		}
	}
}

// subgroupElement draws a random element of the subgroup of order a of
// Z_{d^2}^*, for a prime a dividing d-1: y^(d*(d-1)/a) mod d^2.
func subgroupElement(random io.Reader, d, a *big.Int) (h, dSquared *big.Int, err error) {
	dSquared = new(big.Int).Mul(d, d)
	y, err := rand.Int(random, dSquared)
	if err != nil {
		return nil, nil, err
	}
	e := new(big.Int).Sub(d, one)
	e.Div(e, a).Mul(e, d)
	return y.Exp(y, e, dSquared), dSquared, nil
}

// subgroupPrime draws a prime a of aBits bits and a prime p = 2*a*k + 1
// of exactly bits bits with its top two bits set (as rand.Prime sets
// them, so that the product of two such primes has exactly twice the
// bits).
func subgroupPrime(random io.Reader, bits, aBits int) (p, a *big.Int, err error) {
	a, err = rand.Prime(random, aBits)
	if err != nil {
		return nil, nil, err
	}
	twoA := new(big.Int).Lsh(a, 1)
	lo := new(big.Int).Lsh(big.NewInt(3), uint(bits-2))
	lo.Div(lo, twoA).Add(lo, one)
	hi := new(big.Int).Lsh(one, uint(bits))
	hi.Div(hi, twoA)
	p = new(big.Int)
	for {
		k, err := RandomInRange(random, lo, hi)
		if err != nil {
			return nil, nil, err
		}
		p.Mul(k, twoA).Add(p, one)
		if p.ProbablyPrime(20) {
			return p, a, nil
		}
	}
}

// newPrivateKey derives all cached fields from the prime factors and
// the subgroup description (ap, aq, h), verifying the latter: ap | p-1,
// aq | q-1, h a unit in (1, n^2), h^ap = 1 mod p^2 and h^aq = 1 mod
// q^2 — the condition under which the short exponent strips every
// nonce h^s — and h != 1 modulo either square. A nil h (with nil ap,
// aq) builds a key without a nonce base.
func newPrivateKey(p, q, ap, aq, h *big.Int) (*PrivateKey, error) {
	if (ap == nil) != (h == nil) || (aq == nil) != (h == nil) {
		return nil, errors.New("paillier: subgroup orders and nonce base must come together")
	}
	n := new(big.Int).Mul(p, q)
	sk := &PrivateKey{PublicKey: PublicKey{N: n, H: h}}
	sk.ensureCache()
	if h == nil {
		ap, aq = one, one
	} else if err := sk.PublicKey.checkH(); err != nil {
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
	if h != nil {
		hd := new(big.Int).Mod(h, c.dSquared)
		if hd.Cmp(one) == 0 || hd.Exp(hd, a, c.dSquared).Cmp(one) != 0 {
			return crtPrime{}, errors.New("paillier: nonce base does not have the declared order")
		}
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
	return c, nil
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

// nonces counts every nonce factor drawn (newRn): it is the number of
// fresh randomisations the process paid for, and per request it is a
// protocol constant (DESIGN.md §10's ledger), so a path that quietly
// went back to one encryption per element shows as a count.
// nonceTables counts key objects whose first nonce built their table:
// one per key that encrypts, so a count that keeps growing means keys
// are being rebuilt per request, and one that grows inside a request
// window shows where a build's tens of milliseconds landed.
// fullWidthNonces counts nonce factors produced by a full-width
// exponentiation r^n (exponent n, modulus n^2), which only
// EncryptWithNonce still pays. decrypts counts decryptions by the
// exponent they paid: short when both CRT halves stopped at the
// subgroup order, full when either ran on to p-1 because the nonce was
// not a power of the key's H. All are bridged to the obs registry, so a
// sender whose key lost its H (it draws a private base) or a snapshot
// from before H existed shows on /metrics as a full-decrypt counter
// that keeps growing.
var (
	nonces          atomic.Uint64
	nonceTables     atomic.Uint64
	fullWidthNonces atomic.Uint64
	decrypts        struct{ short, full atomic.Uint64 }
)

func init() {
	obs.Default().CounterFunc("pisa_paillier_nonce_total",
		"nonce factors H^s drawn from a key's nonce table (Encrypt, Rerandomize, NewNonce)",
		nil, nonces.Load)
	obs.Default().CounterFunc("pisa_paillier_nonce_tables_total",
		"key objects whose first nonce built their nonce table",
		nil, nonceTables.Load)
	obs.Default().CounterFunc("pisa_paillier_fullwidth_nonce_total",
		"nonce factors r^n computed by a full-width exponentiation (EncryptWithNonce only)",
		nil, fullWidthNonces.Load)
	const help = "decryptions by CRT exponent: short = subgroup order (nonce in <H>), full = continued to p-1 (foreign nonce or key without H)"
	obs.Default().CounterFunc("pisa_paillier_decrypt_total", help, obs.Labels{"path": "short"}, decrypts.short.Load)
	obs.Default().CounterFunc("pisa_paillier_decrypt_total", help, obs.Labels{"path": "full"}, decrypts.full.Load)
}

// Nonces reports how many nonce factors this process has drawn: one per
// Encrypt, Rerandomize and NewNonce.
func Nonces() uint64 { return nonces.Load() }

// NonceTables reports how many key objects in this process have built
// their nonce table.
func NonceTables() uint64 { return nonceTables.Load() }

// FullWidthNonces reports how many nonce factors this process has
// computed by full-width exponentiation (EncryptWithNonce). The private
// base a key without H draws for its table is not counted.
func FullWidthNonces() uint64 { return fullWidthNonces.Load() }

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
// modulus and nonce base.
func (pk *PublicKey) SameKey(other *PublicKey) bool {
	if !pk.Equal(other) || (pk.H == nil) != (other.H == nil) {
		return false
	}
	return pk.H == nil || pk.H.Cmp(other.H) == 0
}

// Check validates the public fields of a key that arrived from outside
// (a socket, a store): a modulus of at least 128 bits, and a nonce base
// that is absent or a unit of Z_{n^2} other than 1. Whether H is an
// n-th residue of the order its owner claims cannot be checked without
// the secret key; a wrong H harms only ciphertexts under this key, i.e.
// its owner.
func (pk *PublicKey) Check() error {
	if pk.N == nil || pk.N.Sign() <= 0 || pk.N.BitLen() < 128 {
		return ErrKeyTooSmall
	}
	return pk.checkH()
}

// checkH is the nonce-base half of Check.
func (pk *PublicKey) checkH() error {
	if pk.H == nil {
		return nil
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
// stay inside the subgroup whose order the owner decrypts with.
//
// A key without H (rebuilt from a bare modulus) tables a private base
// h = x^n for a unit x drawn from random, as every key did before H was
// published: its nonces are valid but foreign to the owner, who pays
// the full decryption exponent for them.
//
// Concurrent first draws wait for one build (tens of milliseconds at
// 2048 bits, so never draw a key's first nonce under a lock others
// need); a failed build is left to the next draw.
func (pk *PublicKey) table(random io.Reader) (*fbexp.Table, error) {
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
	if h == nil {
		x, err := pk.randomUnit(random)
		if err != nil {
			return nil, fmt.Errorf("nonce base: %w", err)
		}
		h = fbexp.Exp(x, pk.N, pk.mod)
	}
	tab, err := fbexp.New(h, pk.mod, DefaultFastExpWindow, DefaultShortExpBits, fastExpEntries)
	if err != nil {
		return nil, fmt.Errorf("nonce table: %w", err)
	}
	nt.tab.Store(tab)
	nonceTables.Add(1)
	return tab, nil
}

// NonceTableBytes reports the memory footprint of the key's nonce
// table, or 0 while no nonce has been drawn under the key.
func (pk *PublicKey) NonceTableBytes() int {
	if pk.nt == nil {
		return 0
	}
	if tab := pk.nt.tab.Load(); tab != nil {
		return tab.SizeBytes()
	}
	return 0
}

// newRn draws one nonce factor: H^s mod n^2 from the key's table, for s
// uniform in [1, 2^DefaultShortExpBits).
func (pk *PublicKey) newRn(random io.Reader) (*big.Int, error) {
	nonces.Add(1)
	random = orDefaultRand(random)
	tab, err := pk.table(random)
	if err != nil {
		return nil, err
	}
	for {
		s, err := rand.Int(random, shortExpLimit)
		if err != nil {
			return nil, fmt.Errorf("draw short exponent: %w", err)
		}
		if s.Sign() == 0 {
			continue // h^0 = 1 would be a non-blinding nonce
		}
		return tab.Exp(s), nil
	}
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

// randomUnit draws r uniformly from Z_n^*.
func (pk *PublicKey) randomUnit(random io.Reader) (*big.Int, error) {
	random = orDefaultRand(random)
	for {
		r, err := rand.Int(random, pk.N)
		if err != nil {
			return nil, fmt.Errorf("draw nonce: %w", err)
		}
		if r.Sign() == 0 {
			continue
		}
		if new(big.Int).GCD(nil, nil, r, pk.N).Cmp(one) == 0 {
			return r, nil
		}
	}
}

// Encrypt encrypts the signed message m under pk using a fresh random
// nonce from random (see newRn; the key's first nonce builds its table).
func (pk *PublicKey) Encrypt(random io.Reader, m *big.Int) (*Ciphertext, error) {
	rn, err := pk.newRn(random)
	if err != nil {
		return nil, err
	}
	return pk.encryptWithRn(m, rn)
}

// EncryptWithNonce encrypts m with the caller-supplied nonce r in
// Z_n^*. Deterministic given (m, r); used by tests and by the textbook
// cost row of Table II. Always costs a full-width r^n, here and — r^n
// being outside <H> — again at decryption.
func (pk *PublicKey) EncryptWithNonce(m, r *big.Int) (*Ciphertext, error) {
	pk.ensureCache()
	fullWidthNonces.Add(1)
	return pk.encryptWithRn(m, fbexp.Exp(r, pk.N, pk.mod))
}

// encryptWithRn assembles the ciphertext (1 + m*n) * rn mod n^2 from a
// ready-made nonce factor rn, whichever way it was drawn.
func (pk *PublicKey) encryptWithRn(m, rn *big.Int) (*Ciphertext, error) {
	enc, err := pk.encode(m)
	if err != nil {
		return nil, err
	}
	// (1 + m*n) mod n^2
	gm := new(big.Int).Mul(enc, pk.N)
	gm.Add(gm, one)
	gm.Mod(gm, pk.nSquared)
	c := gm.Mul(gm, rn)
	c.Mod(c, pk.nSquared)
	return &Ciphertext{C: c}, nil
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
// reports whether it took the full exponent. u = ct^a mod d^2 comes
// first. Write ct = (1+n)^m * t with t in the subgroup of order d-1:
// then u is (1+n)^(m*a) * t^a, and d divides u-1 exactly when t^a = 1 —
// for every nonce in <H>, and for a foreign one with probability
// a/(d-1). If it does not, u^cofactor = ct^(d-1) finishes the textbook
// decryption; the short exponentiation was its first quarter, not
// wasted work.
func (d *decContext) residue(m *big.Int, c *crtPrime, ct *big.Int) (full bool) {
	inv := c.invShort
	u := d.u.Exp(ct, c.a, c.dSquared)
	m.Sub(u, one)
	// m = L_d(u) if the remainder is zero.
	if m.QuoRem(m, c.d, &d.r); d.r.Sign() != 0 {
		u.Exp(u, c.cofactor, c.dSquared)
		m.Sub(u, one)
		m.Quo(m, c.d)
		inv, full = c.invFull, true
	}
	m.Mul(m, inv)
	m.Mod(m, c.d)
	return full
}

// decrypt runs the CRT decryption using the context's scratch. The
// returned plaintext is freshly allocated (the scratch never escapes).
func (d *decContext) decrypt(ct *Ciphertext) (*big.Int, error) {
	sk := d.sk
	if err := sk.validate(ct); err != nil {
		return nil, err
	}
	fullP := d.residue(&d.mp, &sk.p, ct.C)
	fullQ := d.residue(&d.mq, &sk.q, ct.C)
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
		return new(big.Int).Sub(m, sk.N), nil
	}
	return new(big.Int).Set(m), nil
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

// Rerandomize multiplies a ciphertext by a fresh encryption of zero,
// preserving the plaintext while making the ciphertext
// indistinguishable from fresh. This is the cheap "refresh" the paper
// uses to reuse a precomputed request (§VI-A).
func (pk *PublicKey) Rerandomize(random io.Reader, a *Ciphertext) (*Ciphertext, error) {
	if err := pk.validate(a); err != nil {
		return nil, err
	}
	rn, err := pk.newRn(random)
	if err != nil {
		return nil, err
	}
	c := new(big.Int).Mul(rn, a.C)
	c.Mod(c, pk.nSquared)
	return &Ciphertext{C: c}, nil
}

// Nonce is a precomputed re-randomisation factor, an n-th residue mod
// n^2: h^s for the key's tabled base h (H, or a private x^n on a key
// without H). The expensive exponentiation
// happens at construction (offline); applying it to a ciphertext is a
// single modular multiplication. This is the mechanism behind the
// paper's cheap request-reuse path (§VI-A: the SU "can simply multiply
// the pre-stored ciphertexts by r^n with a new randomly selected r").
type Nonce struct {
	rn *big.Int
}

// NewNonce precomputes one re-randomisation factor (see newRn); the
// batch and pool layers draw theirs through here.
func (pk *PublicKey) NewNonce(random io.Reader) (*Nonce, error) {
	rn, err := pk.newRn(random)
	if err != nil {
		return nil, err
	}
	return &Nonce{rn: rn}, nil
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
