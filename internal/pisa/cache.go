package pisa

import (
	"container/list"
	"crypto/sha256"
	"slices"

	"pisa/internal/obs"
	"pisa/internal/paillier"
	"pisa/internal/parallel"
)

// decisionCache memoises the aggregate-pass output of eqs. 11-12: the
// encrypted indicator column Ĩ = Ñ ⊖ X⊗F̃ of one request, which depends
// only on the F̃ ciphertexts the SDC received and the budget content it
// folded PU updates into. Neither the SU's key nor any per-request
// randomness enters before eq. 13, so the column can be reused when the
// same request comes back — SU.RefreshRequest resends its ciphertexts as
// they are. Entries are read-only and never leave the SDC: every serving
// goes out blinded under a fresh (alpha, beta, eps) tuple whose
// E(-eps*beta) factor carries a fresh nonce, so no two servings are
// linkable to each other or to the entry (DESIGN.md §14).
//
// What a hit still pays is that blinding, and its Ĩ^alpha is a power of
// a base that has not changed since the last serving. So a hit tables
// every cached Ĩ that has no table yet (paillier.PowerTable, one comb
// block each) and later servings exponentiate from the tables, at under
// half the cost and to the same bits. Not at insert: an entry that is
// never hit would pay a build worth half an exponentiation per ciphertext
// for nothing. The same holds for the entry itself: a miss installs its
// column only if its key has missed before and the first-miss set still
// remembers it (admit, TinyLFU's doorkeeper), so a request that is never
// sent again costs one key in that set instead of an entry.
// Tables are memory the entry bound does not see — seven times
// the entry's own ciphertexts — so they have their own byte budget:
// over it, the least recently used entries lose their tables (not their
// place), serve through the general exponentiation, and are tabled
// again by their next hit.
//
// Entries are keyed on the request's own bytes (cacheKey): its license
// digest binds the SUID, the dimensions and every ciphertext to its
// (channel, group) coordinates. A request is therefore only ever served
// from a column computed from its own ciphertexts, so entries are per SU
// and line up cell by cell with the request by construction. The key is
// all the SDC reads: a request tells it nothing but its own bytes.
//
// Freshness is exact, not heuristic, and kept per cached ciphertext:
// every Ĩ keeps the budget ciphertext Ñ it was computed from — the one
// the request's snapshot read for its cell — and a lookup, under the lock
// the snapshot holds, compares it by pointer with the one the budget holds
// now. Ciphertexts are never written in place: a rebuild's write-back
// installs new ones for its whole slot group, so a PU update folded in
// since makes the cells of that group stale and no other. The request
// recomputes the moved cells from its own F̃ and its budget snapshot,
// keeps the rest — tables included — and installs the result as a new
// entry. While a rebuild is in flight the budget still holds the old
// ciphertext, so a hit serves exactly what a recompute would. The entry
// holds the pointers it compares, so no other ciphertext can come to
// live at one of those addresses while it exists.
//
// An entry's budgets and ciphertexts never change once it is in the
// cache; a request that read them under the lock keeps using them
// outside it, whatever replaces the entry meanwhile. Only the table
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

// cacheKeyTag domain-separates the cache key from the license digest it
// is derived from.
const cacheKeyTag = "pisa-cache-key-v2\x00"

// cacheEntry is one memoised aggregate column.
type cacheEntry struct {
	key [32]byte
	// ns[k] is the budget ciphertext Ñ cell k was aggregated from, as the
	// snapshot read it.
	ns []*paillier.Ciphertext
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

// moved lists the cells of the entry whose budget ciphertext is no longer
// the one cells, index-aligned with the entry's, hold.
func (e *cacheEntry) moved(cells []requestCell) []int {
	var moved []int
	for k := range e.ns {
		if e.ns[k] != cells[k].n {
			moved = append(moved, k)
		}
	}
	return moved
}

// budgets returns the budget ciphertext of every cell.
func budgets(cells []requestCell) []*paillier.Ciphertext {
	ns := make([]*paillier.Ciphertext, len(cells))
	for k := range cells {
		ns[k] = cells[k].n
	}
	return ns
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
// entry because their key had missed before, so Misses − Admitted is
// the one-off share: first misses, which only the first-miss set
// remembers. A Stale lookup kept the cached ciphertexts no PU update had
// touched (CellsKept) and recomputed the others (CellsRecomputed); it is
// one Stale, never a Hit, however much it kept. Tabled counts the
// servings blinded from power tables, in whole or in part (the rest took
// the general exponentiation), TableBuilds and TableDrops the tables
// built by hits and taken back by the byte budget, TableBytes what live
// entries hold now.
type CacheCounters struct {
	Hits, Misses, Stale, Evicted    uint64
	Admitted                        uint64
	CellsKept, CellsRecomputed      uint64
	Tabled, TableBuilds, TableDrops uint64
	TableBytes                      int

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

// cacheLookup is the decision cache's verdict on one request, reached
// under s.mu: the cells it serves from an entry and those it recomputes,
// the entry it installs and the tables it blinds from.
type cacheLookup struct {
	from      *cacheEntry            // the entry serving every cell not in recompute
	recompute []int                  // every cell when from is nil
	install   *cacheEntry            // installed once aggregated (installEntry); nil if nothing is
	admitted  bool                   // install is a miss's, admitted
	tabs      []*paillier.PowerTable // from's tables, none for recomputed cells
	build     bool                   // this request tables what from lacks (tableEntry)
}

// cacheKey derives the decision-cache key of a request — the zero key
// when the cache is off: a tagged hash of the request's license digest,
// which binds the SUID, the dimensions and every ciphertext to its
// coordinates. It hashes every ciphertext, so the snapshot calls it
// before taking s.mu.
func (s *SDC) cacheKey(req *TransmissionRequest) ([32]byte, error) {
	if s.cache.cap == 0 {
		return [32]byte{}, nil
	}
	d, err := req.Digest()
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(append([]byte(cacheKeyTag), d[:]...)), nil
}

// lookupLocked is the cache lookup of a request's snapshot, in the same
// critical section: a cached ciphertext computed from the budget
// ciphertext the snapshot holds for its cell equals what a recompute
// would produce. key is the request's cacheKey. Caller holds s.mu.
func (s *SDC) lookupLocked(key [32]byte, cells []requestCell) (l cacheLookup) {
	if s.cache.cap > 0 {
		l = s.cache.lookup(key, cells)
	}
	if l.from == nil {
		l.recompute = make([]int, len(cells))
		for k := range l.recompute {
			l.recompute[k] = k
		}
	}
	return l
}

// lookup is the cache policy for one request, given its key and its
// cells with their budget snapshot: it counts the request as one miss,
// stale lookup or hit and decides what the request takes from the cache
// and what it gives back. An entry under the key was computed
// over the very cells of the request, in the same order.
func (dc *decisionCache) lookup(key [32]byte, cells []requestCell) (l cacheLookup) {
	m := metrics()
	e := dc.get(key)
	if e == nil { // installs only on the key's second miss
		dc.count(&dc.stats.Misses, m.cacheMisses, 1)
		if l.admitted = dc.admit(key); l.admitted {
			l.install = &cacheEntry{key: key, ns: budgets(cells)}
		}
		return l
	}
	l.from, l.tabs, l.recompute = e, e.tabs, e.moved(cells)
	if len(l.recompute) == 0 { // a hit: one request at a time tables it
		dc.count(&dc.stats.Hits, m.cacheHits, 1)
		if !e.tabling && (e.tabs == nil || slices.Contains(e.tabs, nil)) {
			e.tabling, l.build = true, true
		} else {
			dc.countTabled(l.tabs)
		}
		return l
	}
	// Stale in these cells only, whose tables table old content: they are
	// recomputed, the rest kept, and the request's entry replaces e.
	dc.count(&dc.stats.Stale, m.cacheStale, 1)
	dc.count(&dc.stats.CellsKept, m.cacheCellsKept, len(cells)-len(l.recompute))
	dc.count(&dc.stats.CellsRecomputed, m.cacheCellsRecomputed, len(l.recompute))
	if l.tabs != nil {
		l.tabs = slices.Clone(l.tabs)
		for _, k := range l.recompute {
			l.tabs[k] = nil
		}
	}
	l.install = &cacheEntry{key: key, ns: budgets(cells), tabs: l.tabs}
	return l
}

// installEntry completes the entry a request's lookup prepared — key,
// budget snapshot, and the tables of the ciphertexts it keeps —
// with its column and puts it in the cache. is is the column the request
// serves: the cells the lookup left to recompute it aggregated itself,
// the rest it took from the entry its lookup found. The computed cells
// come from the budgets the entry holds — a rebuild that committed since
// then installed new ones and simply makes the cells it touched stale at
// their next lookup. Nothing the SDC emits is linkable to the cached
// copy, because every serving is blinded under a fresh tuple first.
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
