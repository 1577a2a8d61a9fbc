package pisa

import (
	"io"
	"time"

	"pisa/internal/paillier"
)

// WithClock injects a deterministic license clock.
func WithClock(now func() time.Time) SDCOption {
	return sdcOptionFunc(func(o *sdcOptions) { o.now = now })
}

// WithRandom injects the randomness source (default crypto/rand).
func WithRandom(r io.Reader) SDCOption {
	return sdcOptionFunc(func(o *sdcOptions) { o.random = r })
}

// CachedDecisions reports the live entry count of the encrypted
// decision cache.
func (s *SDC) CachedDecisions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cache.lru.Len()
}

// CachedSUKey returns the key object the router's license tail encrypts
// under for id, through its SUKeyCache, for the external tests.
func (r *Router) CachedSUKey(id string) (*paillier.PublicKey, error) { return r.suKeys.Get(id) }

// Serial reports the router's last issued license serial.
func (r *Router) Serial() uint64 { return r.lic.Serial() }
