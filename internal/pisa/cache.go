package pisa

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"slices"

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
// What a hit still pays is that blinding, and its Ĩ^alpha is a power of
// a base that has not changed since the last serving. So a hit tables
// every cached Ĩ that has no table yet (paillier.PowerTable, one comb
// block each) and later servings exponentiate from the tables, at under
// half the cost and to the same bits. Not at insert: an entry that is
// never hit would pay a build worth half an exponentiation per ciphertext
// for nothing. The same holds for the entry itself: a miss installs its
// column only if its scoped key has missed before and the first-miss set
// still remembers it (admit, TinyLFU's doorkeeper), so a shape that is
// never asked for again costs one key in that set instead of an entry.
// Tables are memory the entry bound does not see — seven times
// the entry's own ciphertexts — so they have their own byte budget:
// over it, the least recently used entries lose their tables (not their
// place), serve through the general exponentiation, and are tabled
// again by their next hit.
//
// Entries are keyed on scopedCacheKey, not on the raw digest: the
// digest is SU-supplied and the SDC cannot check it against the
// encrypted F values, so an entry filled from one SU's ciphertexts
// must never be served to a different SU unless the operator has
// declared the two to be in the same cache domain (Params.
// CacheDomains — one administrative fleet whose members are trusted
// not to ship a mismatched digest/F pair at each other).
//
// Freshness is exact, not heuristic, and kept per cached ciphertext:
// every Ĩ stores the content versions (SDC.colApplied) of the budget
// blocks it was computed from — its own block, or the k blocks of its
// slot group — captured in the same critical section that snapshots the
// budget pointers the aggregate reads. A lookup under that same lock
// compares them against the current ones. A PU update that has been
// folded into one of those blocks since (rebuildColumn / rebuildGroup
// write-back) makes that ciphertext stale and no other: the request
// recomputes the moved cells from its own F̃ and its budget snapshot,
// keeps the rest — tables included — and installs the result as a new
// entry. A registered update whose rebuild is still in flight keeps
// colApplied behind colVer, so the in-between window can never serve the
// OLD content as fresh either (the ciphertext was keyed on the old
// applied version, and a recompute snapshots whatever the rebuild
// discipline yields).
//
// An entry's coordinates, versions and ciphertexts never change once it
// is in the cache; a request that read them under the lock keeps using
// them outside it, whatever replaces the entry meanwhile. Only the table
// bookkeeping (tabs, tabBytes, tabling) moves, under the lock, and tabs
// is replaced as a whole, never written into.
//
// All methods must be called with the owning SDC's mutex held.
type decisionCache struct {
	cap int

	lru   *list.List // front = most recently used; values are *cacheEntry
	byKey map[[32]byte]*list.Element

	// missed is the first-miss set: the keys of the last cap first misses,
	// each once, kept in order in missedRing, whose slot missedNext holds
	// the oldest once the ring is full.
	missed     map[[32]byte]struct{}
	missedRing [][32]byte
	missedNext int

	// tableBytes is what the live entries' power tables hold, kept at or
	// under tableBudget by dropping tables from the LRU tail.
	tableBudget int
	tableBytes  int
}

// cacheTableBudget bounds the power-table bytes of one SDC's cache. At
// 2048 bits the benchmark's 12-ciphertext band entries carry 42 KiB of
// tables each and a full paper-scale request (5 000 ciphertexts) 17 MiB,
// so the budget holds the hot shapes of a fleet at either scale without
// letting CacheEntries paper-scale entries claim 17 GiB.
const cacheTableBudget = 64 << 20

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
	// vers[k] holds the colApplied values, at snapshot time, of the budget
	// blocks cell k reads (SDC.cellBlocks). Cells on one block coordinate
	// share a slice.
	vers [][]uint64
	// is holds Ĩ per enumerated cell, read-only: a serving blinds it
	// under a fresh tuple and nothing else of it leaves the SDC.
	is []*paillier.Ciphertext

	// tabs[k] tables is[k] for AlphaBits-bit scalars, nil where the cell
	// has none: before the entry's first hit, for a cell recomputed since,
	// and once the byte budget has taken the tables back. A hit that finds
	// a cell without one sets tabling under the lock, builds outside it and
	// installs through setTables, which clears tabling again — so one
	// request at a time builds for an entry.
	tabling  bool
	tabs     []*paillier.PowerTable
	tabBytes int
}

// aligned reports whether the entry was computed over exactly these
// cells, in this order.
func (e *cacheEntry) aligned(cells []requestCell) bool {
	if len(e.coords) != len(cells) {
		return false
	}
	for i := range cells {
		if e.coords[i].c != cells[i].c || e.coords[i].b != cells[i].b {
			return false
		}
	}
	return true
}

// moved lists the cells of an aligned entry whose budget content is no
// longer at the versions given, index-aligned with the entry's.
func (e *cacheEntry) moved(vers [][]uint64) []int {
	var moved []int
	for k := range e.vers {
		if !slices.Equal(e.vers[k], vers[k]) {
			moved = append(moved, k)
		}
	}
	return moved
}

// wantsTables reports whether a hit should build tables for the entry:
// some cell has none and no build is in flight.
func (e *cacheEntry) wantsTables() bool {
	return !e.tabling && (e.tabs == nil || slices.Contains(e.tabs, nil))
}

func tablesBytes(tabs []*paillier.PowerTable) (bytes int) {
	for _, t := range tabs {
		if t != nil {
			bytes += t.SizeBytes()
		}
	}
	return bytes
}

func newDecisionCache(capacity int) *decisionCache {
	return &decisionCache{
		cap:    capacity,
		lru:    list.New(),
		byKey:  make(map[[32]byte]*list.Element, capacity),
		missed: make(map[[32]byte]struct{}, capacity),

		tableBudget: cacheTableBudget,
	}
}

// admit reports whether a miss on key installs its column: whether key
// missed before and is still in the first-miss set. A first miss is
// remembered instead, in place of the oldest remembered key once the set
// holds cap of them.
func (dc *decisionCache) admit(key [32]byte) bool {
	if _, ok := dc.missed[key]; ok {
		return true
	}
	if len(dc.missedRing) < dc.cap {
		dc.missedRing = append(dc.missedRing, key)
	} else {
		delete(dc.missed, dc.missedRing[dc.missedNext])
		dc.missedRing[dc.missedNext] = key
		dc.missedNext = (dc.missedNext + 1) % dc.cap
	}
	dc.missed[key] = struct{}{}
	return false
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
		dc.removeElement(el)
	}
}

// removeElement drops one live entry, its tables and its count in the
// entries gauge.
func (dc *decisionCache) removeElement(el *list.Element) {
	e := el.Value.(*cacheEntry)
	dc.dropTables(e)
	dc.lru.Remove(el)
	delete(dc.byKey, e.key)
	metrics().cacheEntries.Add(-1)
}

// clear drops every entry and forgets every first miss.
func (dc *decisionCache) clear() {
	for el := dc.lru.Back(); el != nil; el = dc.lru.Back() {
		dc.removeElement(el)
	}
	clear(dc.missed)
	dc.missedRing, dc.missedNext = dc.missedRing[:0], 0
}

// put inserts (or replaces) an entry and reports how many others were
// evicted to stay within capacity. The tables e brings along — those of
// the ciphertexts it kept from the entry it was refreshed from — are
// accounted here, after the replaced entry's are released, so tables two
// generations of an entry share are counted once; dropped is how many
// tables the byte budget then took back.
func (dc *decisionCache) put(e *cacheEntry) (evicted, dropped int) {
	if el, ok := dc.byKey[e.key]; ok {
		dc.dropTables(el.Value.(*cacheEntry))
		el.Value = e
		dc.lru.MoveToFront(el)
	} else {
		dc.byKey[e.key] = dc.lru.PushFront(e)
		metrics().cacheEntries.Add(1)
		for dc.lru.Len() > dc.cap {
			dc.removeElement(dc.lru.Back())
			evicted++
		}
	}
	dc.holdTables(e, e.tabs)
	return evicted, dc.trimTables()
}

// setTables installs e's tables — those it had when its builder looked
// it up plus those the builder added — and reports how many tables the
// byte budget then took back, walking from the LRU tail. An entry that
// outweighs the budget on its own keeps none and stays marked as
// tabling, so no later hit builds them again. An entry that left the
// cache while its tables were being built is left alone: its builder
// still serves from them, nothing retains them.
func (dc *decisionCache) setTables(e *cacheEntry, tabs []*paillier.PowerTable) (dropped int) {
	if el, ok := dc.byKey[e.key]; !ok || el.Value != e {
		return 0
	}
	dc.dropTables(e)
	if tablesBytes(tabs) > dc.tableBudget {
		return len(tabs)
	}
	e.tabling = false
	dc.holdTables(e, tabs)
	return dc.trimTables()
}

// holdTables makes tabs the tables of e, which holds none, and accounts
// their bytes.
func (dc *decisionCache) holdTables(e *cacheEntry, tabs []*paillier.PowerTable) {
	e.tabs, e.tabBytes = tabs, tablesBytes(tabs)
	dc.tableBytes += e.tabBytes
	metrics().cacheTableBytes.Add(int64(e.tabBytes))
}

// trimTables drops tables from the LRU tail until the byte budget holds
// and reports how many went.
func (dc *decisionCache) trimTables() (dropped int) {
	for el := dc.lru.Back(); el != nil && dc.tableBytes > dc.tableBudget; el = el.Prev() {
		dropped += dc.dropTables(el.Value.(*cacheEntry))
	}
	return dropped
}

// dropTables releases e's power tables, if it has any, and reports how
// many there were. The entry keeps serving, through the plain path, until
// a hit tables it again.
func (dc *decisionCache) dropTables(e *cacheEntry) (dropped int) {
	for _, t := range e.tabs {
		if t != nil {
			dropped++
		}
	}
	dc.tableBytes -= e.tabBytes
	metrics().cacheTableBytes.Add(-int64(e.tabBytes))
	e.tabs, e.tabBytes = nil, 0
	return dropped
}

// len reports the live entry count.
func (dc *decisionCache) len() int { return dc.lru.Len() }
