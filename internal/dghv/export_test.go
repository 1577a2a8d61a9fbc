package dghv

import (
	"fmt"
	"math/big"
)

// Decrypt recovers the bit: (c mod p centred) mod 2.
func (k *Key) Decrypt(ct *Ciphertext) (int, error) {
	if ct == nil || ct.C == nil {
		return 0, fmt.Errorf("dghv: nil ciphertext")
	}
	return int(new(big.Int).And(new(big.Int).Abs(k.centred(ct)), big.NewInt(1)).Int64()), nil
}

// NoiseBits reports the current noise magnitude in bits, the quantity
// that limits circuit depth.
func (k *Key) NoiseBits(ct *Ciphertext) int { return k.centred(ct).BitLen() }

// centred is c mod p in (-p/2, p/2].
func (k *Key) centred(ct *Ciphertext) *big.Int {
	rem := new(big.Int).Mod(ct.C, k.p)
	if rem.Cmp(new(big.Int).Rsh(k.p, 1)) > 0 {
		rem.Sub(rem, k.p)
	}
	return rem
}
