package paillier

import (
	"errors"
	"fmt"
	"io"
	"math/big"

	"pisa/internal/fbexp"
)

// This file implements a lightweight 2-of-2 (extensible to k-of-k)
// threshold decryption for Paillier, the building block behind the
// paper's stated future work: "a model that does not involve an STP".
// Instead of one semi-trusted party holding the group secret key, the
// decryption exponent is additively split across share holders;
// nobody can decrypt alone.

// KeyShare is one additive share of the threshold decryption
// exponent. It can compute partial decryptions but reveals nothing
// alone.
type KeyShare struct {
	// Index identifies the share (1-based), for bookkeeping only.
	Index int

	pk *PublicKey
	d  *big.Int // additive share of the decryption exponent
}

// Partial is a partial decryption c^(d_i) mod n^2.
type Partial struct {
	// Index echoes the producing share.
	Index int
	// V is the partial value.
	V *big.Int
}

// errThresholdShares reports invalid share-count requests.
var errThresholdShares = errors.New("paillier: threshold needs at least 2 shares")

// SplitKey derives the threshold decryption exponent from a private
// key and splits it additively into count shares. The private key can
// be destroyed afterwards; the shares jointly (and only jointly)
// decrypt.
//
// Construction: let d be the unique exponent modulo n*lambda with
//
//	d = 0 (mod lambda)   and   d = 1 (mod n).
//
// Then for any ciphertext c = (1+n)^m * r^n:
//
//	c^d = (1+n)^(m*d) * r^(n*d) = (1+n)^m  (mod n^2),
//
// because n*d = 0 (mod n*lambda) kills the random factor and
// d = 1 (mod n) preserves the message in the (1+n)-subgroup. So
// m = L(c^d mod n^2). Splitting d = d_1 + ... + d_k over the integers
// makes decryption a product of per-party partials c^(d_i).
//
// Each share is drawn uniformly below the exponent still to split, so
// every share is non-negative and a lower bound on d, and with k >= 3
// the later shares shrink. This is not the statistically hiding integer
// sharing of Damgård–Jurik or Shoup.
func (sk *PrivateKey) SplitKey(random io.Reader, count int) ([]*KeyShare, error) {
	if count < 2 {
		return nil, errThresholdShares
	}
	// lambda = lcm(p-1, q-1).
	pMinusOne := new(big.Int).Sub(sk.p.d, one)
	qMinusOne := new(big.Int).Sub(sk.q.d, one)
	gcd := new(big.Int).GCD(nil, nil, pMinusOne, qMinusOne)
	lambda := new(big.Int).Mul(pMinusOne, qMinusOne)
	lambda.Div(lambda, gcd)
	// d = lambda * (lambda^{-1} mod n): 0 mod lambda, 1 mod n.
	lambdaInv := new(big.Int).ModInverse(lambda, sk.N)
	if lambdaInv == nil {
		return nil, fmt.Errorf("paillier: lambda not invertible mod n")
	}
	d := new(big.Int).Mul(lambda, lambdaInv)

	shares := make([]*KeyShare, count)
	rest := new(big.Int).Set(d)
	for i := 0; i < count-1; i++ {
		// Uniform share below the remaining exponent keeps all
		// shares non-negative, so partials need no inversions.
		si, err := RandomInRange(random, big.NewInt(0), new(big.Int).Add(rest, one))
		if err != nil {
			return nil, err
		}
		shares[i] = &KeyShare{Index: i + 1, pk: sk.Public(), d: si}
		rest.Sub(rest, si)
	}
	shares[count-1] = &KeyShare{Index: count, pk: sk.Public(), d: rest}
	return shares, nil
}

// PartialDecrypt computes this share's contribution c^(d_i) mod n^2.
func (s *KeyShare) PartialDecrypt(ct *Ciphertext) (*Partial, error) {
	if err := s.pk.validate(ct); err != nil {
		return nil, err
	}
	return &Partial{Index: s.Index, V: fbexp.Exp(ct.C, s.d, s.pk.mod)}, nil
}

// CombinePartials multiplies all partial decryptions and extracts the
// signed plaintext: m = L(prod c^(d_i) mod n^2) decoded centred. All
// shares from SplitKey must contribute exactly once.
func CombinePartials(pk *PublicKey, partials []*Partial) (*big.Int, error) {
	if len(partials) < 2 {
		return nil, errThresholdShares
	}
	pk.ensureCache()
	acc := big.NewInt(1)
	seen := make(map[int]bool, len(partials))
	for _, p := range partials {
		if p == nil || p.V == nil {
			return nil, errors.New("paillier: nil partial")
		}
		if seen[p.Index] {
			return nil, fmt.Errorf("paillier: duplicate partial from share %d", p.Index)
		}
		seen[p.Index] = true
		acc.Mul(acc, p.V)
		acc.Mod(acc, pk.nSquared)
	}
	// acc should now be (1+n)^m = 1 + m*n mod n^2.
	m := new(big.Int).Sub(acc, one)
	rem := new(big.Int)
	m.DivMod(m, pk.N, rem)
	if rem.Sign() != 0 {
		return nil, errors.New("paillier: combined partials are not a valid decryption (missing share?)")
	}
	return pk.decode(m), nil
}
