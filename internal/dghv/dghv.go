// Package dghv implements a toy instance of the van Dijk-Gentry-
// Halevi-Vaikuntanathan "fully homomorphic encryption over the
// integers" scheme (EUROCRYPT 2010) — reference [34] of the paper.
// PISA's evaluation argues that generic FHE is impractical for
// spectrum allocation; this package is the baseline that lets the
// benchmark harness measure that claim: per-gate costs and ciphertext
// sizes of evaluating the spectrum comparison as a boolean circuit.
//
// The secret-key variant is implemented (ciphertext c = p*q + 2r + m
// for a secret odd p); it suffices for cost measurement since the
// public-key variant is strictly more expensive. Parameters are far
// below cryptographic sizes so the circuits actually run; the bench
// extrapolates to secure sizes.
package dghv

import (
	"crypto/rand"
	"fmt"
	"io"
	"math/big"
)

// Params sizes the scheme. Constraints: Rho (noise bits) must stay
// well under Eta (secret prime bits), and Gamma (ciphertext bits)
// must exceed Eta. Multiplicative depth d needs roughly
// Rho * 2^d < Eta - 2.
type Params struct {
	// Rho is the bit length of the fresh noise r.
	Rho int
	// Eta is the bit length of the secret prime p.
	Eta int
	// Gamma is the bit length of the ciphertext integers.
	Gamma int
}

// ToyParams supports multiplicative depth 4-5 (enough for an 8-bit
// tree comparator) while keeping ciphertexts around 4096 bits.
func ToyParams() Params {
	return Params{Rho: 16, Eta: 768, Gamma: 4096}
}

// Validate reports parameter inconsistencies.
func (p Params) Validate() error {
	switch {
	case p.Rho < 2:
		return fmt.Errorf("dghv: Rho %d too small", p.Rho)
	case p.Eta < 4*p.Rho:
		return fmt.Errorf("dghv: Eta %d must be well above Rho %d", p.Eta, p.Rho)
	case p.Gamma < p.Eta+p.Rho:
		return fmt.Errorf("dghv: Gamma %d must exceed Eta %d", p.Gamma, p.Eta)
	}
	return nil
}

// Key is the DGHV secret key.
type Key struct {
	params Params
	p      *big.Int // secret odd prime, Eta bits
}

// Ciphertext is a DGHV ciphertext: one big integer encrypting a bit.
type Ciphertext struct {
	// C is the ciphertext integer.
	C *big.Int
}

// KeyGen draws the secret prime.
func KeyGen(random io.Reader, params Params) (*Key, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	p, err := rand.Prime(random, params.Eta)
	if err != nil {
		return nil, fmt.Errorf("dghv: generate p: %w", err)
	}
	return &Key{params: params, p: p}, nil
}

// CiphertextBytes returns the serialised size of one ciphertext.
func (k *Key) CiphertextBytes() int { return (k.params.Gamma + 7) / 8 }

// Encrypt encrypts one bit: c = q*p + 2r + m with q of
// Gamma - Eta bits and r of Rho bits (signed).
func (k *Key) Encrypt(random io.Reader, bit int) (*Ciphertext, error) {
	if bit != 0 && bit != 1 {
		return nil, fmt.Errorf("dghv: message %d is not a bit", bit)
	}
	qBits := k.params.Gamma - k.params.Eta
	q, err := rand.Int(random, new(big.Int).Lsh(big.NewInt(1), uint(qBits)))
	if err != nil {
		return nil, fmt.Errorf("dghv: draw q: %w", err)
	}
	r, err := rand.Int(random, new(big.Int).Lsh(big.NewInt(1), uint(k.params.Rho)))
	if err != nil {
		return nil, fmt.Errorf("dghv: draw r: %w", err)
	}
	c := new(big.Int).Mul(q, k.p)
	noise := new(big.Int).Lsh(r, 1) // 2r
	c.Add(c, noise)
	c.Add(c, big.NewInt(int64(bit)))
	return &Ciphertext{C: c}, nil
}

// Xor homomorphically XORs two encrypted bits (integer addition).
func Xor(a, b *Ciphertext) *Ciphertext {
	return &Ciphertext{C: new(big.Int).Add(a.C, b.C)}
}

// And homomorphically ANDs two encrypted bits (integer
// multiplication; noise roughly doubles in bit length).
func And(a, b *Ciphertext) *Ciphertext {
	return &Ciphertext{C: new(big.Int).Mul(a.C, b.C)}
}

// Not homomorphically negates an encrypted bit (add the constant 1).
func Not(a *Ciphertext) *Ciphertext {
	return &Ciphertext{C: new(big.Int).Add(a.C, big.NewInt(1))}
}

// Or homomorphically ORs: a + b + a*b.
func Or(a, b *Ciphertext) *Ciphertext {
	return Xor(Xor(a, b), And(a, b))
}

// EncryptBits encrypts the low `width` bits of v, least significant
// first.
func (k *Key) EncryptBits(random io.Reader, v uint64, width int) ([]*Ciphertext, error) {
	if width <= 0 || width > 64 {
		return nil, fmt.Errorf("dghv: width %d outside [1, 64]", width)
	}
	out := make([]*Ciphertext, width)
	for i := 0; i < width; i++ {
		ct, err := k.Encrypt(random, int((v>>uint(i))&1))
		if err != nil {
			return nil, err
		}
		out[i] = ct
	}
	return out, nil
}

// GateCount tallies the boolean gates a circuit evaluation consumed;
// the benchmark harness multiplies these by per-gate timings.
type GateCount struct {
	Xor, And, Not int
}

// GreaterThan evaluates the comparator x > y over two equal-width
// little-endian encrypted bit vectors using a balanced
// divide-and-conquer network: GT(hi||lo) = GT(hi) OR (EQ(hi) AND
// GT(lo)). Multiplicative depth is about log2(width) + 1. The
// returned ciphertext encrypts the single result bit.
func GreaterThan(x, y []*Ciphertext, count *GateCount) (*Ciphertext, error) {
	if len(x) != len(y) {
		return nil, fmt.Errorf("dghv: operand widths differ (%d vs %d)", len(x), len(y))
	}
	if len(x) == 0 {
		return nil, fmt.Errorf("dghv: empty operands")
	}
	gt, _, err := compareRange(x, y, count)
	return gt, err
}

// compareRange returns (gt, eq) ciphertexts for the little-endian bit
// slice.
func compareRange(x, y []*Ciphertext, count *GateCount) (gt, eq *Ciphertext, err error) {
	if len(x) == 1 {
		// gt = x AND NOT y; eq = NOT (x XOR y).
		ny := Not(y[0])
		g := And(x[0], ny)
		e := Not(Xor(x[0], y[0]))
		if count != nil {
			count.And++
			count.Not += 2
			count.Xor++
		}
		return g, e, nil
	}
	mid := len(x) / 2
	loGT, loEQ, err := compareRange(x[:mid], y[:mid], count)
	if err != nil {
		return nil, nil, err
	}
	hiGT, hiEQ, err := compareRange(x[mid:], y[mid:], count)
	if err != nil {
		return nil, nil, err
	}
	// gt = hiGT OR (hiEQ AND loGT); eq = hiEQ AND loEQ.
	carry := And(hiEQ, loGT)
	g := Or(hiGT, carry)
	e := And(hiEQ, loEQ)
	if count != nil {
		count.And += 3 // carry, Or's internal And, eq
		count.Xor += 2 // Or's two Xors
	}
	return g, e, nil
}
