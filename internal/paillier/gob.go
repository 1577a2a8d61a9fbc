package paillier

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math/big"
)

// gobEncode and gobDecode are small helpers shared by the types in
// this package that implement custom gob encodings.
func gobEncode(v interface{}) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func gobDecode(data []byte, v interface{}) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
}

// privateKeyGob is the serialised private key: the prime factors, plus
// the subgroup orders and the nonce base that go with them. Every
// cached field is rebuilt from these. A key written before the last
// three existed decodes to one without a nonce base, which decrypts
// everything with the full exponent.
type privateKeyGob struct {
	P, Q   *big.Int
	AP, AQ *big.Int
	H      *big.Int
}

// GobEncode implements gob.GobEncoder for key persistence (e.g. the
// STP storing its group key across restarts). The encoding is secret
// key material; store it with restrictive permissions.
func (sk *PrivateKey) GobEncode() ([]byte, error) {
	payload := privateKeyGob{P: sk.p.d, Q: sk.q.d}
	if sk.H != nil {
		payload.AP, payload.AQ, payload.H = sk.p.a, sk.q.a, sk.H
	}
	return gobEncode(payload)
}

// GobDecode implements gob.GobDecoder. The subgroup fields are checked
// against the primes (newPrivateKey): a file that declares orders its
// H does not have would make every decryption silently wrong.
func (sk *PrivateKey) GobDecode(data []byte) error {
	var payload privateKeyGob
	if err := gobDecode(data, &payload); err != nil {
		return fmt.Errorf("paillier: decode private key: %w", err)
	}
	// These primes come from a file, not from this package's random
	// search, so the count for random candidates (confirmRounds) does
	// not apply: an adversarial composite needs the full 20 rounds. Both
	// must be odd, as GenerateKey's are: 2 passes ProbablyPrime, but no
	// Montgomery reduction works modulo an even d^2.
	if payload.P == nil || payload.Q == nil ||
		payload.P.Bit(0) == 0 || payload.Q.Bit(0) == 0 ||
		!payload.P.ProbablyPrime(20) || !payload.Q.ProbablyPrime(20) ||
		payload.P.Cmp(payload.Q) == 0 {
		return errors.New("paillier: decoded private key malformed")
	}
	// The floor GenerateKey and PublicKey.Check enforce.
	if new(big.Int).Mul(payload.P, payload.Q).BitLen() < 128 {
		return fmt.Errorf("paillier: decoded private key malformed: %w", ErrKeyTooSmall)
	}
	key, err := newPrivateKey(payload.P, payload.Q, payload.AP, payload.AQ, payload.H)
	if err != nil {
		return fmt.Errorf("paillier: decoded private key malformed: %w", err)
	}
	*sk = *key
	return nil
}
