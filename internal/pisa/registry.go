package pisa

import (
	"fmt"
	"sync"

	"pisa/internal/paillier"
)

// maxIDLen caps a PU or SU identifier the SDC or the STP keeps in its
// state and journals.
const maxIDLen = 4096

// maxWireKeyBytes caps one public modulus from outside: 32 KiB is a
// 256k-bit n, far beyond any real key. A key's nonce base H lives below
// n^2, so the same cap bounds it.
const maxWireKeyBytes = 1 << 15

// checkWireKey validates a public key that came from outside the
// process — an SU's registration, a key fetched from the STP, a
// registry record read back from disk: modulus present and of plausible
// size, nonce base present and a unit of Z_{n^2} other than 1
// (paillier.PublicKey.Check). That is all anyone but the owner can
// check; a key whose H is not the n-th residue of hidden order it
// should be weakens or garbles only ciphertexts under that key, i.e.
// what its owner receives (DESIGN.md §6).
func checkWireKey(what string, pk *paillier.PublicKey) error {
	if pk == nil || pk.N == nil {
		return fmt.Errorf("pisa: %s: nil public key", what)
	}
	if (pk.N.BitLen()+7)/8 > maxWireKeyBytes {
		return fmt.Errorf("pisa: %s: modulus exceeds %d bytes", what, maxWireKeyBytes)
	}
	if err := pk.Check(); err != nil {
		return fmt.Errorf("pisa: %s: %w", what, err)
	}
	return nil
}

// suRegistry is the SU public-key registry both STP flavours keep:
// id -> the key object sign conversions encrypt under. Stored keys are
// the registry's own prepared copies, so conversion workers only ever
// read them; each tables its nonce base on the first conversion into
// it, outside mu (the build is the key's own, see paillier.PublicKey),
// in the lean comb: a conversion draws one nonce per answer ciphertext.
type suRegistry struct {
	mu   sync.RWMutex
	keys map[string]*paillier.PublicKey
}

func newSURegistry() *suRegistry {
	return &suRegistry{keys: make(map[string]*paillier.PublicKey)}
}

// register stores a prepared copy of pk for id after checking it as the
// untrusted input it is (checkWireKey); the object the caller handed in
// is never shared. Re-registration with the same key — modulus and
// nonce base — is idempotent and keeps the stored object; a different
// key for an existing id is rejected (it would let an attacker redirect
// another SU's responses, or with a chosen H strip their nonces).
func (r *suRegistry) register(id string, pk *paillier.PublicKey) error {
	if id == "" || len(id) > maxIDLen {
		return fmt.Errorf("pisa: SU id of %d bytes outside [1, %d]", len(id), maxIDLen)
	}
	if err := checkWireKey(fmt.Sprintf("register SU %q", id), pk); err != nil {
		return err
	}
	stored := (&paillier.PublicKey{N: pk.N, H: pk.H}).PrepareLean()
	r.mu.Lock()
	defer r.mu.Unlock()
	if existing, ok := r.keys[id]; ok {
		if !existing.SameKey(pk) {
			return fmt.Errorf("pisa: SU %q already registered with a different key", id)
		}
		return nil
	}
	r.keys[id] = stored
	return nil
}

// lookup returns the stored key for id.
func (r *suRegistry) lookup(id string) (*paillier.PublicKey, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	pk, ok := r.keys[id]
	return pk, ok
}

// len reports the registry size.
func (r *suRegistry) len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.keys)
}

// snapshot copies the id -> key map (ExportRegistry).
func (r *suRegistry) snapshot() map[string]*paillier.PublicKey {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]*paillier.PublicKey, len(r.keys))
	for id, pk := range r.keys {
		out[id] = pk
	}
	return out
}
