package pisa

import (
	"fmt"
	"io"
	"sync"

	"pisa/internal/paillier"
)

// suRegistry is the SU public-key registry both STP flavours keep:
// id -> the key object sign conversions encrypt under. Stored keys are
// always prepared (and table-armed once SetFastExp ran), so conversion
// workers only ever read them.
//
// Arming a key builds a fixed-base table (tens of milliseconds at 2048
// bits). That work never runs under mu: every lookup of a running
// ConvertSigns takes the read lock, and a registration arriving in the
// middle of a conversion storm must not stall them. Keys are built
// outside the lock and published under it.
type suRegistry struct {
	random io.Reader

	mu   sync.RWMutex
	keys map[string]*paillier.PublicKey

	fb fbConfig
}

// fbConfig is the registry's fixed-base engine configuration (armAll);
// zero until then.
type fbConfig struct {
	armed             bool
	window, shortBits int
}

func newSURegistry(random io.Reader) *suRegistry {
	return &suRegistry{random: random, keys: make(map[string]*paillier.PublicKey)}
}

// preparedCopy returns a key object the caller owns and may arm: pk
// itself when it already carries a fixed-base table (such a key is
// prepared and immutable), otherwise a fresh prepared key over the same
// modulus and nonce base, so the object the caller was handed is never
// written to.
func preparedCopy(pk *paillier.PublicKey) *paillier.PublicKey {
	if pk.FastExpEnabled() {
		return pk
	}
	return (&paillier.PublicKey{N: pk.N, H: pk.H}).Prepare()
}

// build returns the key object to store for pk under the given engine
// configuration. Runs without the lock.
func (r *suRegistry) build(pk *paillier.PublicKey, fb fbConfig) (*paillier.PublicKey, error) {
	stored := preparedCopy(pk)
	if fb.armed {
		if err := stored.EnableFastExp(r.random, fb.window, fb.shortBits); err != nil {
			return nil, err
		}
	}
	return stored, nil
}

// register stores pk for id after checking it as the untrusted input
// it is (checkWireKey). Re-registration with the same key — modulus and
// nonce base — is idempotent and keeps the stored object; a different
// key for an existing id is rejected (it would let an attacker redirect
// another SU's responses, or with a chosen H strip their nonces).
//
// The key is built outside the lock under the engine configuration
// read before, and both are re-checked under the write lock: if armAll
// ran in between the key is rebuilt, so nothing is ever published
// unarmed into an armed registry, and a same-id registration that won
// the race is kept when it carries the same key and refused otherwise.
func (r *suRegistry) register(id string, pk *paillier.PublicKey) error {
	if id == "" {
		return fmt.Errorf("pisa: empty SU id")
	}
	if err := checkWireKey(fmt.Sprintf("register SU %q", id), pk); err != nil {
		return err
	}
	sameKey := func(existing *paillier.PublicKey) error {
		if !existing.SameKey(pk) {
			return fmt.Errorf("pisa: SU %q already registered with a different key", id)
		}
		return nil
	}
	for {
		r.mu.RLock()
		existing, ok := r.keys[id]
		fb := r.fb
		r.mu.RUnlock()
		if ok {
			return sameKey(existing)
		}
		stored, err := r.build(pk, fb)
		if err != nil {
			return fmt.Errorf("pisa: arm SU %q key: %w", id, err)
		}
		r.mu.Lock()
		if r.fb != fb {
			r.mu.Unlock()
			continue
		}
		if existing, ok := r.keys[id]; ok {
			r.mu.Unlock()
			return sameKey(existing)
		}
		r.keys[id] = stored
		r.mu.Unlock()
		return nil
	}
}

// armAll switches the registry to table-armed keys: every stored key is
// replaced by an armed one and every later registration is armed on the
// way in. The tables are built outside the lock.
func (r *suRegistry) armAll(window, shortBits int) error {
	fb := fbConfig{armed: true, window: window, shortBits: shortBits}
	r.mu.Lock()
	r.fb = fb
	bare := make(map[string]*paillier.PublicKey)
	for id, pk := range r.keys {
		if !pk.FastExpEnabled() {
			bare[id] = pk
		}
	}
	r.mu.Unlock()
	for id, pk := range bare {
		armed, err := r.build(pk, fb)
		if err != nil {
			return fmt.Errorf("pisa: arm SU %q key: %w", id, err)
		}
		r.mu.Lock()
		r.keys[id] = armed
		r.mu.Unlock()
	}
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
