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
// prime factors of n.
package paillier

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync/atomic"

	"pisa/internal/fbexp"
	"pisa/internal/obs"
)

// Errors returned by the package.
var (
	ErrMessageTooLarge   = errors.New("paillier: message outside plaintext domain (-n/2, n/2)")
	ErrInvalidCiphertext = errors.New("paillier: ciphertext outside Z_{n^2} or not invertible")
	ErrKeyTooSmall       = errors.New("paillier: modulus must be at least 128 bits")
)

var (
	one = big.NewInt(1)
	two = big.NewInt(2)
)

// Fixed-base engine defaults. The window width trades table memory for
// multiplications per nonce (see internal/fbexp); the short-exponent
// width follows the 2·λ rule — 256 bits gives 112+ bits of security at
// a 2048-bit modulus, matching the key's own strength.
const (
	DefaultFastExpWindow = 6
	DefaultShortExpBits  = 256

	// minShortExpBits refuses configurations that would make nonce
	// exponents trivially enumerable.
	minShortExpBits = 64
)

// PublicKey holds the Paillier public key (n, g) with g = n+1 implied,
// plus cached derived values.
type PublicKey struct {
	// N is the public modulus n = p*q.
	N *big.Int

	nSquared *big.Int // n^2
	half     *big.Int // floor(n/2), threshold for centred decoding

	// Fixed-base exponentiation engine (nil = legacy full-width
	// nonces). fb tables h = x^n mod n^2 for a random unit x; nonce
	// factors become h^s with a short exponent s of shortBits bits.
	// Set once by EnableFastExp before the key is shared across
	// goroutines; the table itself is immutable and read-safe.
	fb        *fbexp.Table
	shortBits int
}

// PrivateKey holds the Paillier key pair. The secret material is
// (lambda, mu) in the textbook formulation; the CRT fields accelerate
// decryption roughly fourfold.
type PrivateKey struct {
	PublicKey

	p, q      *big.Int // prime factors of n
	pSquared  *big.Int
	qSquared  *big.Int
	pMinusOne *big.Int
	qMinusOne *big.Int
	hp        *big.Int // L_p(g^{p-1} mod p^2)^{-1} mod p
	hq        *big.Int // L_q(g^{q-1} mod q^2)^{-1} mod q
	qInvP     *big.Int // q^{-1} mod p, for CRT recombination
}

// Ciphertext is a Paillier ciphertext: an element of Z_{n^2}^*.
// The zero value is not usable; ciphertexts are produced by Encrypt
// and the homomorphic operations.
type Ciphertext struct {
	// C is the ciphertext value in [0, n^2).
	C *big.Int
}

// GenerateKey creates a Paillier key pair whose modulus n has the
// given bit length. Primes are drawn from random, which must be a
// cryptographically secure source (crypto/rand.Reader in production).
func GenerateKey(random io.Reader, bits int) (*PrivateKey, error) {
	random = orDefaultRand(random)
	if bits < 128 {
		return nil, ErrKeyTooSmall
	}
	for {
		p, err := rand.Prime(random, bits/2)
		if err != nil {
			return nil, fmt.Errorf("generate p: %w", err)
		}
		q, err := rand.Prime(random, bits-bits/2)
		if err != nil {
			return nil, fmt.Errorf("generate q: %w", err)
		}
		if p.Cmp(q) == 0 {
			continue
		}
		n := new(big.Int).Mul(p, q)
		if n.BitLen() != bits {
			continue
		}
		// gcd(n, (p-1)(q-1)) must be 1; guaranteed when p, q are
		// distinct primes of the same size, but verify anyway.
		pm1 := new(big.Int).Sub(p, one)
		qm1 := new(big.Int).Sub(q, one)
		phi := new(big.Int).Mul(pm1, qm1)
		if new(big.Int).GCD(nil, nil, n, phi).Cmp(one) != 0 {
			continue
		}
		return newPrivateKey(p, q), nil
	}
}

// newPrivateKey derives all cached fields from the prime factors.
func newPrivateKey(p, q *big.Int) *PrivateKey {
	n := new(big.Int).Mul(p, q)
	sk := &PrivateKey{
		PublicKey: PublicKey{
			N:        n,
			nSquared: new(big.Int).Mul(n, n),
			half:     new(big.Int).Rsh(n, 1),
		},
		p:         new(big.Int).Set(p),
		q:         new(big.Int).Set(q),
		pSquared:  new(big.Int).Mul(p, p),
		qSquared:  new(big.Int).Mul(q, q),
		pMinusOne: new(big.Int).Sub(p, one),
		qMinusOne: new(big.Int).Sub(q, one),
	}
	// hp = L_p(g^{p-1} mod p^2)^{-1} mod p with g = n+1.
	// g^{p-1} mod p^2 = (1+n)^{p-1} = 1 + (p-1)*n mod p^2.
	g := new(big.Int).Add(n, one)
	gp := new(big.Int).Exp(g, sk.pMinusOne, sk.pSquared)
	sk.hp = new(big.Int).ModInverse(lFunc(gp, p), p)
	gq := new(big.Int).Exp(g, sk.qMinusOne, sk.qSquared)
	sk.hq = new(big.Int).ModInverse(lFunc(gq, q), q)
	sk.qInvP = new(big.Int).ModInverse(q, p)
	return sk
}

// lFunc computes L_d(u) = (u - 1) / d.
func lFunc(u, d *big.Int) *big.Int {
	r := new(big.Int).Sub(u, one)
	return r.Div(r, d)
}

// Public returns the public half of the key.
func (sk *PrivateKey) Public() *PublicKey { return &sk.PublicKey }

// ensureCache lazily fills derived fields on keys that were
// deserialised (e.g. received over gob with only N populated). The
// write is unsynchronised: a key that several goroutines will use must
// be prepared (Prepare, EnableFastExp) before it is shared.
func (pk *PublicKey) ensureCache() {
	if pk.nSquared == nil {
		pk.nSquared = new(big.Int).Mul(pk.N, pk.N)
		pk.half = new(big.Int).Rsh(pk.N, 1)
	}
}

// Prepare fills the derived fields (n^2, n/2) now instead of on first
// use and returns pk. A key that crossed a socket or came out of a
// store carries only N; whoever receives it calls Prepare (or
// EnableFastExp, which implies it) before handing the key to worker
// goroutines, after which the key is read-only.
func (pk *PublicKey) Prepare() *PublicKey {
	pk.ensureCache()
	return pk
}

// fullWidthNonces counts nonce factors r^n produced by a full-width
// exponentiation (exponent n, modulus n^2) — the legacy path every hot
// loop is supposed to have left for the fixed-base engine. Bridged to
// the obs registry, so a request path that is silently running on an
// unarmed key shows on /metrics as a counter that keeps growing.
var fullWidthNonces atomic.Uint64

func init() {
	obs.Default().CounterFunc("pisa_paillier_fullwidth_nonce_total",
		"nonce factors r^n computed by a full-width exponentiation (key without a fixed-base table)",
		nil, fullWidthNonces.Load)
}

// FullWidthNonces reports how many nonce factors this process has
// computed by full-width exponentiation. Building a key's fixed-base
// table (one exponentiation per key) is set-up and not counted.
func FullWidthNonces() uint64 { return fullWidthNonces.Load() }

// fullWidthRn computes r^n mod n^2 the legacy way and counts it.
func (pk *PublicKey) fullWidthRn(r *big.Int) *big.Int {
	pk.ensureCache()
	fullWidthNonces.Add(1)
	return new(big.Int).Exp(r, pk.N, pk.nSquared)
}

// NSquared returns n^2, the ciphertext modulus.
func (pk *PublicKey) NSquared() *big.Int {
	pk.ensureCache()
	return pk.nSquared
}

// Bits returns the bit length of the modulus n.
func (pk *PublicKey) Bits() int { return pk.N.BitLen() }

// Equal reports whether two public keys share the same modulus.
func (pk *PublicKey) Equal(other *PublicKey) bool {
	return other != nil && pk.N.Cmp(other.N) == 0
}

// EnableFastExp arms the fixed-base exponentiation engine on this key:
// it draws a random unit x, fixes h = x^n mod n^2, and precomputes the
// windowed power table for h covering exponents of shortBits bits.
// Nonce factors r^n are then generated as h^s = (x^s)^n for a short
// random s — a valid n-th residue at a fraction of the cost (see
// DESIGN.md §10 for the short-exponent security argument).
//
// window and shortBits of 0 select DefaultFastExpWindow and
// DefaultShortExpBits. Enabling is idempotent: a key that already has
// a table keeps it. The call mutates the key, so run it at setup time,
// before the key is shared across goroutines; afterwards the engine is
// read-only and safe for concurrent use.
func (pk *PublicKey) EnableFastExp(random io.Reader, window, shortBits int) error {
	if pk.fb != nil {
		return nil
	}
	if window == 0 {
		window = DefaultFastExpWindow
	}
	if shortBits == 0 {
		shortBits = DefaultShortExpBits
	}
	if shortBits < minShortExpBits {
		return fmt.Errorf("paillier: short exponent width %d below minimum %d", shortBits, minShortExpBits)
	}
	pk.ensureCache()
	x, err := pk.randomUnit(random)
	if err != nil {
		return fmt.Errorf("fast-exp base: %w", err)
	}
	h := new(big.Int).Exp(x, pk.N, pk.nSquared)
	tab, err := fbexp.New(h, pk.nSquared, window, shortBits)
	if err != nil {
		return fmt.Errorf("fast-exp table: %w", err)
	}
	pk.fb = tab
	pk.shortBits = shortBits
	return nil
}

// DisableFastExp drops the engine, reverting to legacy full-width
// nonce generation. Setup-time only, like EnableFastExp.
func (pk *PublicKey) DisableFastExp() {
	pk.fb = nil
	pk.shortBits = 0
}

// FastExpEnabled reports whether the fixed-base engine is armed.
func (pk *PublicKey) FastExpEnabled() bool { return pk.fb != nil }

// FastExpSizeBytes reports the engine table's memory footprint, or 0
// when disabled.
func (pk *PublicKey) FastExpSizeBytes() int {
	if pk.fb == nil {
		return 0
	}
	return pk.fb.SizeBytes()
}

// fastRn produces one nonce factor h^s mod n^2 via the windowed table,
// with s drawn uniformly from [1, 2^shortBits). Caller must have
// checked pk.fb != nil.
func (pk *PublicKey) fastRn(random io.Reader) (*big.Int, error) {
	random = orDefaultRand(random)
	limit := new(big.Int).Lsh(one, uint(pk.shortBits))
	for {
		s, err := rand.Int(random, limit)
		if err != nil {
			return nil, fmt.Errorf("draw short exponent: %w", err)
		}
		if s.Sign() == 0 {
			continue // h^0 = 1 would be a non-blinding nonce
		}
		return pk.fb.Exp(s), nil
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
// nonce from random. With the fixed-base engine armed (EnableFastExp)
// the nonce factor comes from the windowed table; otherwise it costs
// one full-width exponentiation.
func (pk *PublicKey) Encrypt(random io.Reader, m *big.Int) (*Ciphertext, error) {
	if pk.fb != nil {
		rn, err := pk.fastRn(random)
		if err != nil {
			return nil, err
		}
		return pk.encryptWithRn(m, rn)
	}
	r, err := pk.randomUnit(random)
	if err != nil {
		return nil, err
	}
	return pk.EncryptWithNonce(m, r)
}

// EncryptWithNonce encrypts m with the caller-supplied nonce r in
// Z_n^*. Deterministic given (m, r); used by tests and by callers that
// batch nonce generation. Always takes the legacy path — the engine
// cannot reproduce an arbitrary caller-chosen r.
func (pk *PublicKey) EncryptWithNonce(m, r *big.Int) (*Ciphertext, error) {
	return pk.encryptWithRn(m, pk.fullWidthRn(r))
}

// encryptWithRn assembles the ciphertext (1 + m*n) * rn mod n^2 from a
// ready-made nonce factor rn = r^n. Shared by the legacy and
// fixed-base paths so the ciphertext shape is identical in both.
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
	sk         *PrivateKey
	mp, mq, mm big.Int
}

// newDecContext prepares a decryption context for this key.
func (sk *PrivateKey) newDecContext() *decContext {
	sk.ensureCache()
	return &decContext{sk: sk}
}

// decrypt runs the CRT decryption using the context's scratch. The
// returned plaintext is freshly allocated (the scratch never escapes).
func (d *decContext) decrypt(ct *Ciphertext) (*big.Int, error) {
	sk := d.sk
	if err := sk.validate(ct); err != nil {
		return nil, err
	}
	// mp = L_p(c^{p-1} mod p^2) * hp mod p, with the L-function
	// evaluated in place on the scratch.
	mp := d.mp.Exp(ct.C, sk.pMinusOne, sk.pSquared)
	mp.Sub(mp, one)
	mp.Div(mp, sk.p)
	mp.Mul(mp, sk.hp)
	mp.Mod(mp, sk.p)
	// mq likewise.
	mq := d.mq.Exp(ct.C, sk.qMinusOne, sk.qSquared)
	mq.Sub(mq, one)
	mq.Div(mq, sk.q)
	mq.Mul(mq, sk.hq)
	mq.Mod(mq, sk.q)
	// CRT: m = mq + q * ((mp - mq) * qInvP mod p)
	m := d.mm.Sub(mp, mq)
	m.Mul(m, sk.qInvP)
	m.Mod(m, sk.p)
	m.Mul(m, sk.q)
	m.Add(m, mq)
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
	base := a.C
	exp := k
	if k.Sign() < 0 {
		inv := new(big.Int).ModInverse(a.C, pk.nSquared)
		if inv == nil {
			return nil, ErrInvalidCiphertext
		}
		base = inv
		exp = new(big.Int).Neg(k)
	}
	c := new(big.Int).Exp(base, exp, pk.nSquared)
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
	var rn *big.Int
	if pk.fb != nil {
		var err error
		if rn, err = pk.fastRn(random); err != nil {
			return nil, err
		}
	} else {
		r, err := pk.randomUnit(random)
		if err != nil {
			return nil, err
		}
		rn = pk.fullWidthRn(r)
	}
	c := new(big.Int).Mul(rn, a.C)
	c.Mod(c, pk.nSquared)
	return &Ciphertext{C: c}, nil
}

// Nonce is a precomputed re-randomisation factor r^n mod n^2. The
// expensive exponentiation happens at construction (offline); applying
// it to a ciphertext is a single modular multiplication. This is the
// mechanism behind the paper's cheap request-reuse path (§VI-A: the SU
// "can simply multiply the pre-stored ciphertexts by r^n with a new
// randomly selected r").
type Nonce struct {
	rn *big.Int
}

// NewNonce precomputes one re-randomisation factor. With the
// fixed-base engine armed this is h^s over the windowed table; the
// batch and pool layers inherit the fast path through here.
func (pk *PublicKey) NewNonce(random io.Reader) (*Nonce, error) {
	if pk.fb != nil {
		rn, err := pk.fastRn(random)
		if err != nil {
			return nil, err
		}
		return &Nonce{rn: rn}, nil
	}
	r, err := pk.randomUnit(random)
	if err != nil {
		return nil, err
	}
	return &Nonce{rn: pk.fullWidthRn(r)}, nil
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
