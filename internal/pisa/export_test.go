package pisa

import "pisa/internal/paillier"

// CachedSUKey returns the key object the router's license tail encrypts
// under for id, through its SUKeyCache, for the external tests.
func (r *Router) CachedSUKey(id string) (*paillier.PublicKey, error) { return r.suKeys.Get(id) }
