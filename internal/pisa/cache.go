package pisa

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"time"

	"pisa/internal/geo"
	"pisa/internal/paillier"
)

// decisionCache memoises the aggregate-pass output of eqs. 11-12: the
// encrypted indicator column Ĩ for one request shape, which depends
// only on public inputs — the plaintext request shape (committed by
// the SU's ShapeDigest) and the budget content the SDC folded PU
// updates into. Neither the SU's key nor any per-request randomness
// enters before eq. 13, so the column can be reused across refreshes
// of the same SU — and across SUs within a declared trust domain.
// Entries are read-only and never leave the SDC: every serving goes
// out blinded under a fresh (alpha, beta, eps) tuple whose E(-eps*beta)
// factor carries a fresh nonce, so no two servings are linkable to
// each other or to the entry (DESIGN.md §14).
//
// Entries are keyed on scopedCacheKey, not on the raw digest: the
// digest is SU-supplied and the SDC cannot check it against the
// encrypted F values, so an entry filled from one SU's ciphertexts
// must never be served to a different SU unless the operator has
// declared the two to be in the same cache domain (Params.
// CacheDomains — one administrative fleet whose members are trusted
// not to ship a mismatched digest/F pair at each other).
//
// Freshness is exact, not heuristic: every entry stores the
// content-version vector (SDC.colApplied) of the blocks its footprint
// covers, captured in the same critical section that snapshots the
// budget pointers the aggregate reads. A lookup under that same lock
// compares the stored vector against the current one; any PU update
// that has been folded into a footprint block since (rebuildColumn /
// rebuildGroup write-back) makes the entry stale, and a registered
// update whose rebuild is still in flight keeps colApplied behind
// colVer — so the in-between window can never serve the OLD content
// as fresh either (the entry was keyed on the old applied version,
// and a recompute snapshots whatever the rebuild discipline yields).
//
// All methods must be called with the owning SDC's mutex held.
type decisionCache struct {
	cap int
	ttl time.Duration // 0 = no age bound

	lru   *list.List // front = most recently used; values are *cacheEntry
	byKey map[[32]byte]*list.Element
}

// Cache-key scope discriminators: a per-SU scope (the default — the
// scope string is the requester's SUID) and a shared-domain scope
// (the scope string is the operator-declared domain name). The tag
// byte domain-separates the two, so an SU whose id collides with a
// domain name can never alias its entries.
const (
	cacheKeyTag      = "pisa-cache-key-v1\x00"
	cacheScopePerSU  = byte(0)
	cacheScopeDomain = byte(1)
)

// scopedCacheKey derives the cache map key: SHA-256 over a domain
// tag, the sharing scope (length-prefixed, so scope/digest boundaries
// cannot shift) and the SU-supplied shape digest. Binding the scope
// into the key is the cross-SU poisoning defence — a dishonest digest
// can only ever address entries inside the sender's own scope.
func scopedCacheKey(scopeTag byte, scope string, digest [32]byte) [32]byte {
	h := sha256.New()
	h.Write([]byte(cacheKeyTag))
	h.Write([]byte{scopeTag})
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(scope)))
	h.Write(n[:])
	h.Write([]byte(scope))
	h.Write(digest[:])
	var key [32]byte
	h.Sum(key[:0])
	return key
}

// cellCoord is one (channel, block-or-group) coordinate of the
// request enumeration, in the deterministic row-major order
// ForEach/ForEachGroup yield.
type cellCoord struct{ c, b int }

// cacheEntry is one memoised aggregate column.
type cacheEntry struct {
	key [32]byte
	// coords is the exact footprint enumeration the entry was computed
	// over; a hit must match it positionally, so a dishonest digest
	// (same digest, different disclosure) degrades to a miss rather
	// than misaligning ciphertexts against blinding factors.
	coords []cellCoord
	// blocks lists the distinct budget blocks the footprint reads
	// (packed groups expanded to their member blocks) and vers their
	// colApplied values at snapshot time, index-aligned.
	blocks []geo.BlockID
	vers   []uint64
	// is holds Ĩ per enumerated cell. Entries are never served
	// directly — ProcessRequest re-randomises a copy.
	is     []*paillier.Ciphertext
	filled time.Time
}

func newDecisionCache(capacity int, ttl time.Duration) *decisionCache {
	return &decisionCache{
		cap:   capacity,
		ttl:   ttl,
		lru:   list.New(),
		byKey: make(map[[32]byte]*list.Element, capacity),
	}
}

// get returns the entry for key (refreshing its LRU position) or nil.
func (dc *decisionCache) get(key [32]byte) *cacheEntry {
	el, ok := dc.byKey[key]
	if !ok {
		return nil
	}
	dc.lru.MoveToFront(el)
	return el.Value.(*cacheEntry)
}

// remove drops the entry for key if present.
func (dc *decisionCache) remove(key [32]byte) {
	if el, ok := dc.byKey[key]; ok {
		dc.lru.Remove(el)
		delete(dc.byKey, key)
	}
}

// put inserts (or replaces) an entry and reports how many others were
// evicted to stay within capacity.
func (dc *decisionCache) put(e *cacheEntry) (evicted int) {
	if el, ok := dc.byKey[e.key]; ok {
		el.Value = e
		dc.lru.MoveToFront(el)
		return 0
	}
	dc.byKey[e.key] = dc.lru.PushFront(e)
	for dc.lru.Len() > dc.cap {
		oldest := dc.lru.Back()
		dc.lru.Remove(oldest)
		delete(dc.byKey, oldest.Value.(*cacheEntry).key)
		evicted++
	}
	return evicted
}

// len reports the live entry count.
func (dc *decisionCache) len() int { return dc.lru.Len() }
