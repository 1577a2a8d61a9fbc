package pisa

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"slices"

	"pisa/internal/geo"
	"pisa/internal/obs"
	"pisa/internal/paillier"
	"pisa/internal/parallel"
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

	// stats is what CacheStats reports; its TableBytes, what the live
	// entries' power tables hold, is kept at or under tableBudget by
	// dropping tables from the LRU tail.
	tableBudget int
	stats       CacheCounters
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

// put inserts (or replaces) an entry, evicting others to stay within
// capacity. The tables e brings along — those of the ciphertexts it kept
// from the entry it was refreshed from — are accounted here, after the
// replaced entry's are released, so tables two generations of an entry
// share are counted once; the byte budget may then take tables back.
func (dc *decisionCache) put(e *cacheEntry) {
	if el, ok := dc.byKey[e.key]; ok {
		dc.dropTables(el.Value.(*cacheEntry))
		el.Value = e
		dc.lru.MoveToFront(el)
	} else {
		dc.byKey[e.key] = dc.lru.PushFront(e)
		metrics().cacheEntries.Add(1)
		for dc.lru.Len() > dc.cap {
			dc.removeElement(dc.lru.Back())
			dc.count(&dc.stats.Evicted, metrics().cacheEvicts, 1)
		}
	}
	dc.holdTables(e, e.tabs)
	dc.trimTables()
}

// setTables installs e's tables — those it had when its builder looked
// it up plus those the builder added — and lets the byte budget take
// tables back, walking from the LRU tail. An entry that outweighs the
// budget on its own keeps none, all of them counted as dropped, and stays
// marked as tabling, so no later hit builds them again. An entry that
// left the cache while its tables were being built is left alone: its
// builder still serves from them, nothing retains them.
func (dc *decisionCache) setTables(e *cacheEntry, tabs []*paillier.PowerTable) {
	if el, ok := dc.byKey[e.key]; !ok || el.Value != e {
		return
	}
	dc.dropTables(e)
	if tablesBytes(tabs) > dc.tableBudget {
		dc.count(&dc.stats.TableDrops, metrics().cacheTableDrops, len(tabs))
		return
	}
	e.tabling = false
	dc.holdTables(e, tabs)
	dc.trimTables()
}

// holdTables makes tabs the tables of e, which holds none, and accounts
// their bytes.
func (dc *decisionCache) holdTables(e *cacheEntry, tabs []*paillier.PowerTable) {
	e.tabs, e.tabBytes = tabs, tablesBytes(tabs)
	dc.stats.TableBytes += e.tabBytes
	metrics().cacheTableBytes.Add(int64(e.tabBytes))
}

// trimTables drops tables from the LRU tail until the byte budget holds
// and counts them.
func (dc *decisionCache) trimTables() {
	for el := dc.lru.Back(); el != nil && dc.stats.TableBytes > dc.tableBudget; el = el.Prev() {
		dc.count(&dc.stats.TableDrops, metrics().cacheTableDrops, dc.dropTables(el.Value.(*cacheEntry)))
	}
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
	dc.stats.TableBytes -= e.tabBytes
	metrics().cacheTableBytes.Add(-int64(e.tabBytes))
	e.tabs, e.tabBytes = nil, 0
	return dropped
}

// len reports the live entry count.
func (dc *decisionCache) len() int { return dc.lru.Len() }

// count is how every cache event is counted, once: n events into one of
// the cache's CacheStats tallies, which sit beside the entries under the
// same lock, and into the process-wide obs series of the same event.
func (dc *decisionCache) count(tally *uint64, series *obs.Counter, n int) {
	*tally += uint64(n)
	series.Add(uint64(n))
}

// countTabled counts a serving blinded from tabs if any cell has one.
func (dc *decisionCache) countTabled(tabs []*paillier.PowerTable) {
	if tabled(tabs) {
		dc.count(&dc.stats.Tabled, metrics().blindTable, 1)
	}
}

// tabled reports whether any cell has a table in tabs.
func tabled(tabs []*paillier.PowerTable) bool {
	return slices.ContainsFunc(tabs, func(t *paillier.PowerTable) bool { return t != nil })
}

// CacheCounters is a point-in-time snapshot of one SDC instance's
// decision-cache activity. Admitted counts the Misses that installed an
// entry because their shape had missed before, so Misses − Admitted is
// the one-off share: first misses, which only the first-miss set
// remembers. A Stale lookup whose entry covered the same cells kept the
// cached ciphertexts no PU update had touched (CellsKept)
// and recomputed the others (CellsRecomputed); it is one Stale, never a
// Hit, however much it kept. Tabled counts the servings blinded from
// power tables, in whole or in part (the rest took the general
// exponentiation), TableBuilds and TableDrops the tables built by hits
// and taken back by the byte budget, TableBytes what live entries hold
// now.
type CacheCounters struct {
	Hits, Misses, Stale, Bypass, Evicted uint64
	Admitted                             uint64
	CellsKept, CellsRecomputed           uint64
	Tabled, TableBuilds, TableDrops      uint64
	TableBytes                           int

	// Deprecated: Expired is always 0; cache entries have no age bound.
	// The field exists only because benchmark/deploy.go:55, which a PR
	// may not edit, reads it.
	Expired uint64
}

// CacheStats returns this instance's decision-cache counters since
// construction. Unlike the obs registry, which aggregates every SDC in
// the process, these are per instance: a shard's daemon logs its own in
// its state summary, and a test holding several SDCs tells them apart.
func (s *SDC) CacheStats() CacheCounters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cache.stats
}

// CachedDecisions reports the live entry count of the encrypted
// decision cache (0 when disabled).
func (s *SDC) CachedDecisions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cache.len()
}

// cacheLookup is the decision cache's verdict on one request, reached
// under s.mu: the cells it serves from an entry and those it recomputes,
// the entry it installs and the tables it blinds from.
type cacheLookup struct {
	digest    bool                   // the request carried a shape digest
	from      *cacheEntry            // the aligned entry serving every cell not in recompute
	recompute []int                  // every cell when from is nil
	install   *cacheEntry            // installed once aggregated (installEntry); nil if nothing is
	admitted  bool                   // install is a miss's, admitted
	tabs      []*paillier.PowerTable // from's tables, none for recomputed cells
	build     bool                   // this request tables what from lacks (tableEntry)
}

// lookupLocked is the cache lookup of a request's snapshot, in the same
// critical section: the colApplied values read here identify exactly the
// budget content the snapshot holds, so a cached ciphertext whose versions
// match equals what a recompute would produce for its cell. Entries are
// addressed by the digest bound to the requester's sharing scope
// (cacheKeyFor), never by the raw digest alone. Caller holds s.mu.
func (s *SDC) lookupLocked(req *TransmissionRequest, cells []requestCell) (l cacheLookup) {
	switch {
	case s.cache.cap == 0: // disabled
	case req.ShapeDigest == [32]byte{}:
		s.cache.count(&s.cache.stats.Bypass, metrics().cacheBypass, 1)
	default:
		l = s.cache.lookup(s.cacheKeyFor(req.SUID, req.ShapeDigest), cells, s.footprintVersLocked(cells))
	}
	if l.from == nil {
		l.recompute = make([]int, len(cells))
		for k := range l.recompute {
			l.recompute[k] = k
		}
	}
	return l
}

// lookup is the cache policy for one digest-carrying request, given its
// scoped key, its cells and their current content versions: it counts the
// request as one miss, stale lookup or hit and decides what the request
// takes from the cache and what it gives back.
func (dc *decisionCache) lookup(key [32]byte, cells []requestCell, vers [][]uint64) (l cacheLookup) {
	m := metrics()
	l.digest = true
	e := dc.get(key)
	switch {
	case e == nil: // installs only on the key's second miss
		dc.count(&dc.stats.Misses, m.cacheMisses, 1)
		if l.admitted = dc.admit(key); !l.admitted {
			return l
		}
	case e.aligned(cells):
		l.from, l.tabs, l.recompute = e, e.tabs, e.moved(vers)
		if len(l.recompute) == 0 { // a hit: one request at a time tables it
			dc.count(&dc.stats.Hits, m.cacheHits, 1)
			if !e.tabling && (e.tabs == nil || slices.Contains(e.tabs, nil)) {
				e.tabling, l.build = true, true
			} else {
				dc.countTabled(l.tabs)
			}
			return l
		}
		// Stale in these cells only, whose tables table old content: they
		// are recomputed, the rest kept, and the request's entry replaces e.
		dc.count(&dc.stats.CellsKept, m.cacheCellsKept, len(cells)-len(l.recompute))
		dc.count(&dc.stats.CellsRecomputed, m.cacheCellsRecomputed, len(l.recompute))
		if l.tabs != nil {
			l.tabs = slices.Clone(l.tabs)
			for _, k := range l.recompute {
				l.tabs[k] = nil
			}
		}
	default:
		// A digest collision, or a scope member reusing another shape's
		// digest: nothing of the entry lines up with the request's cells.
		dc.removeElement(dc.byKey[key])
	}
	if e != nil { // stale, whole or in part
		dc.count(&dc.stats.Stale, m.cacheStale, 1)
	}
	coords := make([]cellCoord, len(cells))
	for i := range cells {
		coords[i] = cellCoord{c: cells[i].c, b: cells[i].b}
	}
	l.install = &cacheEntry{key: key, coords: coords, vers: vers, tabs: l.tabs}
	return l
}

// footprintVersLocked returns, per request cell, the current
// applied-content versions of the budget blocks the cell reads — the
// members of its slot group; cells of one group share a slice. Caller
// holds s.mu.
func (s *SDC) footprintVersLocked(cells []requestCell) [][]uint64 {
	k := s.codec.Slots()
	byCoord := make(map[int][]uint64)
	vers := make([][]uint64, len(cells))
	for i := range cells {
		b := cells[i].b
		v, ok := byCoord[b]
		if !ok {
			lo, hi := b*k, min((b+1)*k, s.params.Watch.Grid.Blocks())
			v = make([]uint64, hi-lo)
			for j := range v {
				v[j] = s.colApplied[geo.BlockID(lo+j)]
			}
			byCoord[b] = v
		}
		vers[i] = v
	}
	return vers
}

// cacheKeyFor derives the decision-cache key for a request: the shape
// digest bound to its sharing scope — the requester's declared cache
// domain when the operator registered one, the requester's own SUID
// otherwise. Under the default per-SU scope a dishonest digest can
// only address (and so only poison) the sender's own entries; sharing
// across SUs requires the explicit CacheDomains trust declaration.
func (s *SDC) cacheKeyFor(suid string, digest [32]byte) [32]byte {
	if domain, ok := s.cacheDomain[suid]; ok {
		return scopedCacheKey(cacheScopeDomain, domain, digest)
	}
	return scopedCacheKey(cacheScopePerSU, suid, digest)
}

// installEntry completes the entry a request's lookup prepared — key,
// coordinates, versions, and the tables of the ciphertexts it keeps —
// with its column and puts it in the cache. is is the column the request
// serves: the cells the lookup left to recompute it aggregated itself,
// the rest it took from the entry its lookup found. The versions in the
// entry were read under the same lock as the budget snapshot the computed
// cells come from — a rebuild that committed since then changed
// colApplied and simply makes the cells it touched stale at their next
// lookup. Nothing the SDC emits is linkable to the cached copy, because
// every serving is blinded under a fresh tuple first.
func (s *SDC) installEntry(l *cacheLookup, is []*paillier.Ciphertext) {
	// Computed cells are stored as copies packed into one allocation of
	// their own — an entry lives long enough for the multiplication scratch
	// a modular product keeps, or a clone's padding, to be most of its
	// memory. Kept cells stay the objects the previous entry held, so their
	// tables stay theirs; the previous entry's allocation lives on while any
	// of them does, and a refresh of the same cells again drops the last
	// refresh's allocation, not that one.
	fresh := make([]*paillier.Ciphertext, len(l.recompute))
	for j, k := range l.recompute {
		fresh[j] = is[k]
	}
	l.install.is = slices.Clone(is)
	for j, ct := range paillier.CloneCompact(fresh) {
		l.install.is[l.recompute[j]] = ct
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cache.put(l.install)
	if l.admitted {
		s.cache.count(&s.cache.stats.Admitted, metrics().cacheAdmits, 1)
	}
	s.cache.countTabled(l.install.tabs)
}

// tableEntry builds, on the worker pool, a power table for every cell of
// a cache entry's column that has none in have — the entry's tables as
// of the caller's lookup — and installs the completed set. The blind stage
// calls it outside s.mu, from the one hit whose lookup claimed the build.
// The returned tables serve that request whatever became of the entry
// meanwhile; when a cell cannot be tabled they are have, and the plain
// path, whose error names the cell, takes over.
func (s *SDC) tableEntry(e *cacheEntry, have []*paillier.PowerTable) []*paillier.PowerTable {
	tabs := make([]*paillier.PowerTable, len(e.is))
	copy(tabs, have)
	var missing []int
	for k, t := range tabs {
		if t == nil {
			missing = append(missing, k)
		}
	}
	err := parallel.For(parallel.Auto(), len(missing), func(i int) (err error) {
		k := missing[i]
		tabs[k], err = s.group.PowerTable(e.is[k], s.params.AlphaBits)
		return err
	})
	if err != nil {
		return have
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cache.setTables(e, tabs)
	s.cache.count(&s.cache.stats.TableBuilds, metrics().cacheTableBuilds, len(missing))
	s.cache.countTabled(tabs)
	return tabs
}
