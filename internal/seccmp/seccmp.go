// Package seccmp implements the bit-wise secure integer comparison
// PISA deliberately avoids (§IV-B cites [12, 13, 18] as the
// alternatives). It exists as an ablation baseline: the benchmark
// harness compares its cost — per value, l ciphertexts and an
// interactive boolean circuit — against PISA's single-ciphertext
// blinded sign test.
//
// Model: an evaluator (the SDC) holds values encrypted bit by bit
// under the helper's (the STP's) Paillier key. Additions are free
// (homomorphic); multiplications of two ciphertexts require one round
// trip to the helper using the standard blinded-product gadget:
//
//	Enc(a*b) = Reenc((a+ra)*(b+rb)) - ra*Enc(b) - rb*Enc(a) - ra*rb
//
// so the helper sees only uniformly blinded values. XOR/AND/OR over
// encrypted bits follow, and a divide-and-conquer comparator gives
// x > y in O(l) interactive multiplications of depth O(log l).
package seccmp

import (
	"crypto/rand"
	"fmt"
	"io"
	"math/big"

	"pisa/internal/paillier"
)

// Helper is the decrypting party of the multiplication gadget (the
// STP role in the ablation).
type Helper struct {
	key    *paillier.PrivateKey
	random io.Reader
}

// NewHelper wraps the key-holding party.
func NewHelper(random io.Reader, key *paillier.PrivateKey) *Helper {
	if random == nil {
		random = rand.Reader
	}
	return &Helper{key: key, random: random}
}

// PublicKey returns the helper's Paillier public key.
func (h *Helper) PublicKey() *paillier.PublicKey { return h.key.Public() }

// MulBlinded decrypts the two blinded operands and returns an
// encryption of their product. The operands are uniformly blinded by
// the evaluator, so nothing about a or b leaks.
func (h *Helper) MulBlinded(ca, cb *paillier.Ciphertext) (*paillier.Ciphertext, error) {
	a, err := h.key.Decrypt(ca)
	if err != nil {
		return nil, fmt.Errorf("seccmp: helper decrypt a: %w", err)
	}
	b, err := h.key.Decrypt(cb)
	if err != nil {
		return nil, fmt.Errorf("seccmp: helper decrypt b: %w", err)
	}
	prod := new(big.Int).Mul(a, b)
	ct, err := h.key.PublicKey.Encrypt(h.random, prod)
	if err != nil {
		return nil, fmt.Errorf("seccmp: helper encrypt product: %w", err)
	}
	return ct, nil
}

// Stats counts protocol cost for the benchmark harness.
type Stats struct {
	// Rounds is the number of evaluator-to-helper round trips.
	Rounds int
	// HomOps counts homomorphic operations on the evaluator.
	HomOps int
}

// Evaluator is the computing party (the SDC role): it sees only
// ciphertexts and drives the comparison circuit.
type Evaluator struct {
	pk     *paillier.PublicKey
	helper *Helper
	random io.Reader
	// blindBits sizes the additive blinding of the product gadget.
	blindBits int

	// Stats accumulates protocol cost; reset it between
	// measurements.
	Stats Stats
}

// NewEvaluator pairs an evaluator with its helper. blindBits controls
// the statistical hiding of the product gadget (64-80 typical for a
// bit domain).
func NewEvaluator(random io.Reader, helper *Helper, blindBits int) (*Evaluator, error) {
	if helper == nil {
		return nil, fmt.Errorf("seccmp: evaluator requires a helper")
	}
	if blindBits < 8 {
		return nil, fmt.Errorf("seccmp: blindBits %d too small", blindBits)
	}
	if random == nil {
		random = rand.Reader
	}
	return &Evaluator{
		pk:        helper.PublicKey(),
		helper:    helper,
		random:    random,
		blindBits: blindBits,
	}, nil
}

// EncryptBits encrypts the low width bits of v (little endian) under
// the helper's key — the input format this protocol forces on PUs and
// SUs, l ciphertexts per value instead of PISA's one.
func (e *Evaluator) EncryptBits(v uint64, width int) ([]*paillier.Ciphertext, error) {
	if width <= 0 || width > 64 {
		return nil, fmt.Errorf("seccmp: width %d outside [1, 64]", width)
	}
	out := make([]*paillier.Ciphertext, width)
	for i := 0; i < width; i++ {
		ct, err := e.pk.EncryptInt(e.random, int64((v>>uint(i))&1))
		if err != nil {
			return nil, err
		}
		out[i] = ct
	}
	return out, nil
}

// Mul returns Enc(a*b) via one blinded round trip to the helper.
func (e *Evaluator) Mul(ca, cb *paillier.Ciphertext) (*paillier.Ciphertext, error) {
	limit := new(big.Int).Lsh(big.NewInt(1), uint(e.blindBits))
	ra, err := paillier.RandomInRange(e.random, big.NewInt(0), limit)
	if err != nil {
		return nil, err
	}
	rb, err := paillier.RandomInRange(e.random, big.NewInt(0), limit)
	if err != nil {
		return nil, err
	}
	blindA, err := e.pk.AddPlain(ca, ra)
	if err != nil {
		return nil, err
	}
	blindB, err := e.pk.AddPlain(cb, rb)
	if err != nil {
		return nil, err
	}
	e.Stats.Rounds++
	e.Stats.HomOps += 2
	prod, err := e.helper.MulBlinded(blindA, blindB)
	if err != nil {
		return nil, err
	}
	// Unblind: prod - ra*b - rb*a - ra*rb.
	raB, err := e.pk.ScalarMul(ra, cb)
	if err != nil {
		return nil, err
	}
	rbA, err := e.pk.ScalarMul(rb, ca)
	if err != nil {
		return nil, err
	}
	out, err := e.pk.Sub(prod, raB)
	if err != nil {
		return nil, err
	}
	if out, err = e.pk.Sub(out, rbA); err != nil {
		return nil, err
	}
	rarb := new(big.Int).Mul(ra, rb)
	if out, err = e.pk.AddPlain(out, new(big.Int).Neg(rarb)); err != nil {
		return nil, err
	}
	e.Stats.HomOps += 5
	return out, nil
}

// Xor returns Enc(a XOR b) = Enc(a + b - 2ab); one interactive Mul.
func (e *Evaluator) Xor(ca, cb *paillier.Ciphertext) (*paillier.Ciphertext, error) {
	ab, err := e.Mul(ca, cb)
	if err != nil {
		return nil, err
	}
	sum, err := e.pk.Add(ca, cb)
	if err != nil {
		return nil, err
	}
	twoAB, err := e.pk.ScalarMulInt(2, ab)
	if err != nil {
		return nil, err
	}
	e.Stats.HomOps += 3
	return e.pk.Sub(sum, twoAB)
}

// Not returns Enc(1 - a).
func (e *Evaluator) Not(ca *paillier.Ciphertext) (*paillier.Ciphertext, error) {
	neg, err := e.pk.ScalarMulInt(-1, ca)
	if err != nil {
		return nil, err
	}
	e.Stats.HomOps += 2
	return e.pk.AddPlain(neg, big.NewInt(1))
}

// Or returns Enc(a OR b) = Enc(a + b - ab); one interactive Mul.
func (e *Evaluator) Or(ca, cb *paillier.Ciphertext) (*paillier.Ciphertext, error) {
	ab, err := e.Mul(ca, cb)
	if err != nil {
		return nil, err
	}
	sum, err := e.pk.Add(ca, cb)
	if err != nil {
		return nil, err
	}
	e.Stats.HomOps += 2
	return e.pk.Sub(sum, ab)
}

// GreaterThan evaluates Enc(x > y) over little-endian encrypted bit
// vectors with a balanced divide-and-conquer network; O(len)
// interactive multiplications.
func (e *Evaluator) GreaterThan(x, y []*paillier.Ciphertext) (*paillier.Ciphertext, error) {
	if len(x) != len(y) {
		return nil, fmt.Errorf("seccmp: operand widths differ (%d vs %d)", len(x), len(y))
	}
	if len(x) == 0 {
		return nil, fmt.Errorf("seccmp: empty operands")
	}
	gt, _, err := e.compareRange(x, y)
	return gt, err
}

func (e *Evaluator) compareRange(x, y []*paillier.Ciphertext) (gt, eq *paillier.Ciphertext, err error) {
	if len(x) == 1 {
		ny, err := e.Not(y[0])
		if err != nil {
			return nil, nil, err
		}
		g, err := e.Mul(x[0], ny) // x AND NOT y
		if err != nil {
			return nil, nil, err
		}
		xor, err := e.Xor(x[0], y[0])
		if err != nil {
			return nil, nil, err
		}
		eqBit, err := e.Not(xor)
		if err != nil {
			return nil, nil, err
		}
		return g, eqBit, nil
	}
	mid := len(x) / 2
	loGT, loEQ, err := e.compareRange(x[:mid], y[:mid])
	if err != nil {
		return nil, nil, err
	}
	hiGT, hiEQ, err := e.compareRange(x[mid:], y[mid:])
	if err != nil {
		return nil, nil, err
	}
	carry, err := e.Mul(hiEQ, loGT)
	if err != nil {
		return nil, nil, err
	}
	g, err := e.Or(hiGT, carry)
	if err != nil {
		return nil, nil, err
	}
	eqBoth, err := e.Mul(hiEQ, loEQ)
	if err != nil {
		return nil, nil, err
	}
	return g, eqBoth, nil
}
