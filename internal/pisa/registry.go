package pisa

import (
	"fmt"
	"sync"

	"pisa/internal/paillier"
)

// suRegistry is the SU public-key registry both STP flavours keep:
// id -> the key object sign conversions encrypt under. Stored keys are
// the registry's own prepared copies, so conversion workers only ever
// read them; each tables its nonce base on the first conversion into
// it, outside mu (the build is the key's own, see paillier.PublicKey).
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
	if id == "" {
		return fmt.Errorf("pisa: empty SU id")
	}
	if err := checkWireKey(fmt.Sprintf("register SU %q", id), pk); err != nil {
		return err
	}
	stored := (&paillier.PublicKey{N: pk.N, H: pk.H}).Prepare()
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
