// Package dsig implements the transmission-permission license and its
// digital signature (§IV-B step 2 of the paper). The SDC signs a
// license describing the SU's granted operation; the signature is then
// encrypted under the SU's Paillier key and homomorphically masked so
// the SU recovers a *valid* signature only when every interference
// budget was respected.
//
// Because the masked signature travels inside a Paillier plaintext,
// the signature-as-integer must fit in the Paillier message domain
// (-n/2, n/2). RSA keys are therefore sized strictly below the
// Paillier modulus; see MaxSignerBits.
package dsig

import (
	"crypto"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync"

	"pisa/internal/paillier"
)

// ErrBadSignature is returned when a signature does not verify.
var ErrBadSignature = errors.New("dsig: invalid license signature")

// License is the transmission permission the SDC issues. It binds the
// SU's identity to the (still encrypted) operation parameters the SU
// submitted, so a granted SU can later prove what it was authorised
// to do without the SDC ever seeing the parameters in the clear.
type License struct {
	// SUID identifies the requesting secondary user.
	SUID string
	// Issuer identifies the SDC that issued the license.
	Issuer string
	// Serial is a unique issuance counter.
	Serial uint64
	// IssuedUnix and ExpiresUnix bound the validity window.
	IssuedUnix  int64
	ExpiresUnix int64
	// RequestDigest is the SHA-256 digest of the SU's encrypted
	// operation matrix (the ciphertext of S_j from the paper), so
	// the license commits to the submitted parameters without
	// revealing them.
	RequestDigest [32]byte
}

// canonical produces the deterministic byte encoding that is signed.
func (l *License) canonical() []byte {
	var buf []byte
	appendStr := func(s string) {
		var n [4]byte
		binary.BigEndian.PutUint32(n[:], uint32(len(s)))
		buf = append(buf, n[:]...)
		buf = append(buf, s...)
	}
	buf = append(buf, "PISA-LICENSE-V1"...)
	appendStr(l.SUID)
	appendStr(l.Issuer)
	var u [8]byte
	binary.BigEndian.PutUint64(u[:], l.Serial)
	buf = append(buf, u[:]...)
	binary.BigEndian.PutUint64(u[:], uint64(l.IssuedUnix))
	buf = append(buf, u[:]...)
	binary.BigEndian.PutUint64(u[:], uint64(l.ExpiresUnix))
	buf = append(buf, u[:]...)
	buf = append(buf, l.RequestDigest[:]...)
	return buf
}

// Digest returns the SHA-256 digest of the canonical license encoding.
func (l *License) Digest() [32]byte {
	return sha256.Sum256(l.canonical())
}

// HashRequest digests an encrypted request payload for embedding in a
// license.
func HashRequest(payload []byte) [32]byte {
	return sha256.Sum256(payload)
}

// MaxSignerBits returns the largest RSA modulus size usable with a
// Paillier modulus of the given size: 64 bits of headroom keep the
// signature integer strictly inside (-n/2, n/2).
func MaxSignerBits(paillierBits int) int {
	return paillierBits - 64
}

// Signer issues license signatures.
type Signer struct {
	key *rsa.PrivateKey
}

// NewSigner generates a fresh RSA signing key of the given size with
// e = 65537. Its primes come from paillier.Prime, the sieved search the
// Paillier keys draw theirs from, p and q on two goroutines at once that
// share random through paillier.SharedReader, so random need not be
// safe for concurrent use; NewSigner returns only after both have
// stopped. random must be a cryptographically secure source
// (crypto/rand.Reader in production).
func NewSigner(random io.Reader, bits int) (*Signer, error) {
	if bits < 512 {
		return nil, fmt.Errorf("dsig: signer modulus %d too small (min 512)", bits)
	}
	key, err := generateKey(paillier.SharedReader(random), bits)
	if err != nil {
		return nil, fmt.Errorf("generate signer key: %w", err)
	}
	return &Signer{key: key}, nil
}

// signerExponent is the public exponent e of every signing key, the one
// crypto/rsa.GenerateKey uses.
const signerExponent = 65537

// generateKey assembles an RSA key from two primes of (bits+1)/2 and
// bits/2 bits, making the checks and retries of crypto/rsa.GenerateKey
// (FIPS 186-5 A.1.3): p = q means a broken source and fails; a pair
// whose product is not bits wide, whose distance |p-q| is at most
// 2^(bits/2-100), or where e divides p-1 or q-1 is drawn again. d is
// e^-1 mod lambda(n) = lcm(p-1, q-1). Precompute then runs crypto/rsa's
// own key check (p*q = n, d*e = 1 modulo p-1 and q-1, |p-q| and
// d > 2^(bits/2)), and Validate reports its verdict without running it
// a second time.
func generateKey(random io.Reader, bits int) (*rsa.PrivateKey, error) {
	one, e := big.NewInt(1), big.NewInt(signerExponent)
	for {
		var p, q *big.Int
		var errP, errQ error
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			p, errP = paillier.Prime(random, (bits+1)/2)
		}()
		go func() {
			defer wg.Done()
			q, errQ = paillier.Prime(random, bits/2)
		}()
		wg.Wait()
		if errP != nil {
			return nil, fmt.Errorf("generate p: %w", errP)
		}
		if errQ != nil {
			return nil, fmt.Errorf("generate q: %w", errQ)
		}
		if p.Cmp(q) == 0 {
			return nil, errors.New("dsig: generated p = q, random source is broken")
		}
		n := new(big.Int).Mul(p, q)
		if n.BitLen() != bits || new(big.Int).Sub(p, q).BitLen() <= bits/2-100 {
			continue
		}
		pMinus1, qMinus1 := new(big.Int).Sub(p, one), new(big.Int).Sub(q, one)
		if new(big.Int).GCD(nil, nil, e, pMinus1).Cmp(one) != 0 ||
			new(big.Int).GCD(nil, nil, e, qMinus1).Cmp(one) != 0 {
			continue
		}
		lambda := new(big.Int).GCD(nil, nil, pMinus1, qMinus1)
		lambda.Quo(pMinus1, lambda).Mul(lambda, qMinus1)
		key := &rsa.PrivateKey{
			PublicKey: rsa.PublicKey{N: n, E: signerExponent},
			D:         new(big.Int).ModInverse(e, lambda),
			Primes:    []*big.Int{p, q},
		}
		key.Precompute()
		if err := key.Validate(); err != nil {
			return nil, err
		}
		return key, nil
	}
}

// Public returns the verification key.
func (s *Signer) Public() *rsa.PublicKey { return &s.key.PublicKey }

// Sign produces the RSA-PKCS#1 v1.5 signature over the license.
func (s *Signer) Sign(l *License) ([]byte, error) {
	digest := l.Digest()
	sig, err := rsa.SignPKCS1v15(rand.Reader, s.key, crypto.SHA256, digest[:])
	if err != nil {
		return nil, fmt.Errorf("sign license: %w", err)
	}
	return sig, nil
}

// Verify checks sig against the license under pub.
func Verify(pub *rsa.PublicKey, l *License, sig []byte) error {
	digest := l.Digest()
	if err := rsa.VerifyPKCS1v15(pub, crypto.SHA256, digest[:], sig); err != nil {
		return ErrBadSignature
	}
	return nil
}

// SignatureToInt embeds a signature into a non-negative big integer
// (big-endian), the representation that is Paillier-encrypted and
// homomorphically masked.
func SignatureToInt(sig []byte) *big.Int {
	return new(big.Int).SetBytes(sig)
}

// IntToSignature recovers the fixed-size signature bytes from a
// decrypted integer. A masked (invalid) value typically fails here
// already — negative after centred decoding, or too large — and the
// caller treats that as a denied request.
func IntToSignature(v *big.Int, size int) ([]byte, error) {
	if v.Sign() < 0 {
		return nil, fmt.Errorf("dsig: negative signature integer: %w", ErrBadSignature)
	}
	b := v.Bytes()
	if len(b) > size {
		return nil, fmt.Errorf("dsig: signature integer needs %d bytes > signature size %d: %w",
			len(b), size, ErrBadSignature)
	}
	out := make([]byte, size)
	copy(out[size-len(b):], b)
	return out, nil
}

// VerifyInt is the SU-side check: convert the decrypted integer back
// to signature bytes and verify. Returns ErrBadSignature (wrapped)
// for any masked or tampered value.
func VerifyInt(pub *rsa.PublicKey, l *License, v *big.Int) error {
	sig, err := IntToSignature(v, (pub.N.BitLen()+7)/8)
	if err != nil {
		return err
	}
	return Verify(pub, l, sig)
}

// ValidAt reports whether the license validity window covers the
// given Unix time. Signature verification proves authenticity; this
// proves currency — SUs must check both before transmitting.
func (l *License) ValidAt(unix int64) bool {
	return unix >= l.IssuedUnix && unix <= l.ExpiresUnix
}
