package pisa

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"pisa/internal/geo"
	"pisa/internal/obs"
	"pisa/internal/paillier"
	"pisa/internal/watch"
)

// newCacheDeployment builds a test universe with the params mutated
// first (cache size, slot count...).
func newCacheDeployment(t *testing.T, mutate func(*Params)) *deployment {
	t.Helper()
	wp := testWatchParams(t)
	params := TestParams(wp)
	if mutate != nil {
		mutate(&params)
	}
	stp, err := NewSTP(rand.Reader, params.PaillierBits)
	if err != nil {
		t.Fatalf("NewSTP: %v", err)
	}
	sdc, err := NewSDC("sdc-test", params, nil, stp)
	if err != nil {
		t.Fatalf("NewSDC: %v", err)
	}
	t.Cleanup(sdc.Close)
	oracle, err := watch.NewSystem(wp, nil)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	return &deployment{params: params, stp: stp, sdc: sdc, oracle: oracle}
}

// setTableBudget squeezes (or restores) the cache's power-table byte
// budget. Nothing is trimmed until tables are next accounted.
func (d *deployment) setTableBudget(bytes int) {
	d.sdc.mu.Lock()
	d.sdc.cache.tableBudget = bytes
	d.sdc.mu.Unlock()
}

// missOnce sends req's shape through s once and drops the answer. The
// decision cache installs a shape on its second miss (DESIGN.md §14), so
// a test whose next request of the shape is to fill the cache sends it
// here first, before it snapshots any counter.
func missOnce(t *testing.T, s *SDC, req *TransmissionRequest) {
	t.Helper()
	if _, err := s.ProcessShard(req); err != nil {
		t.Fatalf("first miss: %v", err)
	}
}

// cacheEventCounts snapshots the cache event counters (process-global,
// so tests always compare deltas).
type cacheEventCounts struct{ hits, misses, stale uint64 }

func snapshotCacheEvents() cacheEventCounts {
	m := metrics()
	return cacheEventCounts{
		hits:   m.cacheHits.Value(),
		misses: m.cacheMisses.Value(),
		stale:  m.cacheStale.Value(),
	}
}

func (c cacheEventCounts) deltaFrom(prev cacheEventCounts) cacheEventCounts {
	return cacheEventCounts{
		hits:   c.hits - prev.hits,
		misses: c.misses - prev.misses,
		stale:  c.stale - prev.stale,
	}
}

// TestCacheHitOracleParity runs the same scenario with the cache on
// and off, at k = 4 and at the paper's k = 1: one SU refreshing a request,
// decisions checked against the plaintext oracle in both the empty band
// and the PU-denied state. With the cache on, the second refresh's
// aggregate must be served from the cache (hit counted) and still yield
// the oracle-identical decision; a re-prepared request of the same shape
// carries other ciphertexts and misses.
func TestCacheHitOracleParity(t *testing.T) {
	for _, tc := range []struct {
		name    string
		oneSlot bool
		entries int
	}{
		{"packed/on", false, 256},
		{"packed/off", false, 0},
		{"k=1/on", true, 256},
		{"k=1/off", true, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := newCacheDeployment(t, func(p *Params) {
				if tc.oneSlot {
					oneSlot(t, p)
				}
				p.CacheEntries = tc.entries
			})
			var on uint64 // the events of a request the cache sees, 0 when disabled
			if tc.entries > 0 {
				on = 1
			}
			su := d.newSU(t, "su-a", 7)
			eirp := map[int]int64{1: maxEIRP(d)}
			base, err := su.PrepareRequest(eirp, geo.Disclosure{})
			if err != nil {
				t.Fatal(err)
			}
			missOnce(t, d.sdc, base)

			// check serves two refreshes of base against the oracle.
			check := func(wantHits, wantMisses uint64) {
				t.Helper()
				before := snapshotCacheEvents()
				want := d.oracleDecision(t, 7, eirp)
				for i := 0; i < 2; i++ {
					req, err := su.RefreshRequest(base)
					if err != nil {
						t.Fatal(err)
					}
					if got := d.decide(t, su, req).Granted; got != want {
						t.Fatalf("refresh %d: PISA=%v, oracle=%v", i, got, want)
					}
				}
				delta := snapshotCacheEvents().deltaFrom(before)
				if delta.hits != wantHits || delta.misses != wantMisses {
					t.Fatalf("cache events = %+v, want %d hits / %d misses", delta, wantHits, wantMisses)
				}
			}

			check(on, on) // the first refresh misses and fills; the second hits

			// A PU landing next door flips the decision; parity must hold
			// through the invalidation too.
			pu := d.newPU(t, "tv-1", 8)
			d.tune(t, pu, 1, d.params.Watch.Quantize(d.params.Watch.SMinPUmW))
			check(on, 0) // the first refresh is stale and refills; the second hits

			again, err := su.PrepareRequest(eirp, geo.Disclosure{})
			if err != nil {
				t.Fatal(err)
			}
			before := snapshotCacheEvents()
			if got, want := d.decide(t, su, again).Granted, d.oracleDecision(t, 7, eirp); got != want {
				t.Fatalf("re-prepared request: PISA=%v, oracle=%v", got, want)
			}
			if delta := snapshotCacheEvents().deltaFrom(before); delta.hits != 0 || delta.misses != on {
				t.Fatalf("re-prepared request: cache events = %+v, want a miss and no hit", delta)
			}
		})
	}
}

// TestCacheStaleAfterPUUpdate pins the invalidation discipline: a
// cached decision keyed on the pre-update content version must be
// detected as stale (counted, dropped, recomputed) the moment the
// update's rebuild commits — and the recomputed decision must reflect
// the new spectrum state.
func TestCacheStaleAfterPUUpdate(t *testing.T) {
	d := newDeployment(t)
	su := d.newSU(t, "su-1", 7)
	eirp := map[int]int64{1: maxEIRP(d)}
	req, err := su.PrepareRequest(eirp, geo.Disclosure{})
	if err != nil {
		t.Fatal(err)
	}
	missOnce(t, d.sdc, req)
	if !d.decide(t, su, req).Granted {
		t.Fatal("empty band denied")
	}

	pu := d.newPU(t, "tv-1", 8)
	d.tune(t, pu, 1, d.params.Watch.Quantize(d.params.Watch.SMinPUmW))

	before := snapshotCacheEvents()
	refreshed, err := su.RefreshRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	if d.decide(t, su, refreshed).Granted {
		t.Fatal("stale cached grant served after a PU update")
	}
	if d.oracleDecision(t, 7, eirp) {
		t.Fatal("oracle disagrees with post-update denial")
	}
	delta := snapshotCacheEvents().deltaFrom(before)
	if delta.stale != 1 || delta.hits != 0 {
		t.Fatalf("cache events = %+v, want exactly one stale and no hit", delta)
	}

	// The recompute refilled the cache at the new version: a further
	// refresh is a hit and still denies.
	before = snapshotCacheEvents()
	again, err := su.RefreshRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	if d.decide(t, su, again).Granted {
		t.Fatal("cache-served post-update decision flipped back to grant")
	}
	if delta := snapshotCacheEvents().deltaFrom(before); delta.hits != 1 {
		t.Fatalf("cache events = %+v, want one hit at the new version", delta)
	}
}

// TestCacheRerandomizedRequestMisses: a re-randomised request
// (SU.RerandomizeRequest, the paper's refresh) carries bytes the SDC has
// never seen, so it misses, is decided correctly and installs nothing —
// not even after its original's first miss, which a resend would have
// turned into an entry. Its recompute is counted like any other miss.
func TestCacheRerandomizedRequestMisses(t *testing.T) {
	d := newDeployment(t)
	su := d.newSU(t, "su-1", 7)
	eirp := map[int]int64{1: maxEIRP(d)}
	req, err := su.PrepareRequest(eirp, geo.Disclosure{})
	if err != nil {
		t.Fatal(err)
	}
	missOnce(t, d.sdc, req)

	before := snapshotCacheEvents()
	admitsBefore := metrics().cacheAdmits.Value()
	entriesBefore := d.sdc.CachedDecisions()
	aggMissBefore := metrics().cacheAggMiss.Count()
	want := d.oracleDecision(t, 7, eirp)
	for i := 0; i < 2; i++ {
		fresh, err := su.RerandomizeRequest(req)
		if err != nil {
			t.Fatal(err)
		}
		if got := d.decide(t, su, fresh).Granted; got != want {
			t.Fatalf("re-randomised request %d: PISA=%v, oracle=%v", i, got, want)
		}
	}
	delta := snapshotCacheEvents().deltaFrom(before)
	if delta.misses != 2 || delta.hits != 0 || delta.stale != 0 {
		t.Fatalf("cache events = %+v, want two misses and nothing else", delta)
	}
	if got := metrics().cacheAdmits.Value() - admitsBefore; got != 0 {
		t.Fatalf("re-randomised requests admitted %d entries", got)
	}
	if got := d.sdc.CachedDecisions(); got != entriesBefore {
		t.Fatalf("re-randomised requests changed the cache population: %d -> %d", entriesBefore, got)
	}
	if d := metrics().cacheAggMiss.Count() - aggMissBefore; d != 2 {
		t.Fatalf("two recomputes observed %d samples into the path=miss histogram", d)
	}
}

// entryOf returns the cache entry s holds under req's key, or nil.
func entryOf(t *testing.T, s *SDC, req *TransmissionRequest) *cacheEntry {
	t.Helper()
	key, err := s.cacheKey(req)
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cache.get(key)
}

// TestCachePerSUScopeIsolation is the cross-SU regression: entries are
// keyed on the request's own bytes, SUID included, so the one lever a
// rogue SU has — resending another SU's ciphertexts under its own SUID —
// reaches no entry of the other SU. The rogue's copy misses and gets the
// oracle's decision; a second copy installs an entry of its own, and the
// honest SU's entry is neither replaced nor served to the rogue.
func TestCachePerSUScopeIsolation(t *testing.T) {
	d := newDeployment(t)
	honest := d.newSU(t, "su-honest", 7)
	rogue := d.newSU(t, "su-rogue", 7)
	strong := map[int]int64{1: maxEIRP(d)}
	// A PU next door denies the strong demand.
	d.tune(t, d.newPU(t, "tv-1", 8), 1, d.params.Watch.Quantize(d.params.Watch.SMinPUmW))
	want := d.oracleDecision(t, 7, strong)

	honestReq, err := honest.PrepareRequest(strong, geo.Disclosure{})
	if err != nil {
		t.Fatal(err)
	}
	missOnce(t, d.sdc, honestReq)
	if got := d.decide(t, honest, honestReq).Granted; got != want {
		t.Fatalf("honest SU's decision %v, the oracle's %v", got, want)
	}
	honestEntry := entryOf(t, d.sdc, honestReq)
	if honestEntry == nil {
		t.Fatal("honest request did not fill the cache")
	}

	// The rogue resends the honest ciphertexts under its own SUID.
	stolen := *honestReq
	stolen.SUID = rogue.ID()
	before := snapshotCacheEvents()
	for i := 0; i < 2; i++ {
		if got := d.decide(t, rogue, &stolen).Granted; got != want {
			t.Fatalf("rogue's copy %d decided %v, the oracle %v", i, got, want)
		}
	}
	if delta := snapshotCacheEvents().deltaFrom(before); delta.hits != 0 || delta.misses != 2 {
		t.Fatalf("cache events = %+v, want two misses and no cross-SU hit", delta)
	}
	rogueEntry := entryOf(t, d.sdc, &stolen)
	if rogueEntry == nil || rogueEntry == honestEntry {
		t.Fatalf("rogue's second copy installed %p, want an entry of its own beside %p", rogueEntry, honestEntry)
	}
	if got := entryOf(t, d.sdc, honestReq); got != honestEntry {
		t.Fatal("the rogue's copy replaced the honest SU's entry")
	}

	// The honest SU's resend still hits its own entry.
	before = snapshotCacheEvents()
	if got := d.decide(t, honest, honestReq).Granted; got != want {
		t.Fatalf("honest resend decided %v, the oracle %v", got, want)
	}
	if delta := snapshotCacheEvents().deltaFrom(before); delta.hits != 1 || delta.misses != 0 {
		t.Fatalf("cache events = %+v, want the honest resend to hit", delta)
	}
}

// TestCacheEntriesGaugeSumsInstances: SDCs built in one process — here
// the two windows of a partition, each served its slice of the request —
// share one pisa_sdc_cache_entries series. Every instance adds its own
// entries to it, as it adds its tables to pisa_sdc_cache_table_bytes, and
// Close gives both back. Requests still work after Close, refilling the
// cache, and no goroutine outlives the SDCs.
func TestCacheEntriesGaugeSumsInstances(t *testing.T) {
	baseline := runtime.NumGoroutine()
	params := TestParams(testWatchParams(t))
	stp, err := NewSTP(rand.Reader, params.PaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	var shards []*SDC
	for _, w := range [][2]int{{0, 2}, {2, 3}} {
		s, err := NewSDC("shard", params, nil, stp, WithChannelWindow(w[0], w[1]))
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, s)
	}
	su, err := NewSU(rand.Reader, "su-1", 7, params, shards[0].Planner(), stp.GroupKey())
	if err != nil {
		t.Fatal(err)
	}
	defer su.Close()
	if err := stp.RegisterSU(su.ID(), su.PublicKey()); err != nil {
		t.Fatal(err)
	}
	m := metrics()
	entries0, bytes0 := m.cacheEntries.Value(), m.cacheTableBytes.Value()
	// Each request has a cell in both windows; the repeat hits and tables.
	// With missed set, each request goes through missOnce first, so that
	// its serving fills; Close forgets first misses with the entries.
	serve := func(missed bool, reqs ...*TransmissionRequest) {
		t.Helper()
		for _, req := range reqs {
			for i, s := range shards {
				sub := *req
				var err error
				if sub.FP, err = req.FP.ChannelSlice(s.ChannelWindow()); err != nil {
					t.Fatal(err)
				}
				if missed {
					missOnce(t, s, &sub)
				}
				if _, err := s.ProcessShard(&sub); err != nil {
					t.Fatalf("shard %d: %v", i, err)
				}
			}
		}
	}
	check := func(what string, wantEntries int) {
		t.Helper()
		var entries, bytes int
		for _, s := range shards {
			entries += s.CachedDecisions()
			bytes += s.CacheStats().TableBytes
		}
		gotEntries, gotBytes := m.cacheEntries.Value()-entries0, m.cacheTableBytes.Value()-bytes0
		if entries != wantEntries || gotEntries != int64(entries) || gotBytes != int64(bytes) {
			t.Fatalf("%s: gauges moved by %d entries and %d table bytes, the SDCs hold %d (want %d) and %d",
				what, gotEntries, gotBytes, entries, wantEntries, bytes)
		}
	}
	prepare := func(eirp map[int]int64) *TransmissionRequest {
		t.Helper()
		req, err := su.PrepareRequest(eirp, geo.Disclosure{})
		if err != nil {
			t.Fatal(err)
		}
		return req
	}
	first, second := prepare(map[int]int64{0: 1, 2: 1}), prepare(map[int]int64{1: 1, 2: 1})
	serve(true, first, second)
	serve(false, first)
	check("after requests", 4)
	if m.cacheTableBytes.Value() == bytes0 {
		t.Fatal("the repeat built no tables")
	}
	for _, s := range shards {
		s.Close()
	}
	check("after Close", 0)
	serve(true, first)
	check("serving after Close", 2)
	for _, s := range shards {
		s.Close()
		s.Close()
	}
	check("after the second Close", 0)
	waitGoroutines(t, baseline)
}

// signRecorder is an STPService that keeps the blinded V~ set of every
// sign test it forwards: what an observer of the SDC -> STP link sees.
type signRecorder struct {
	STPService
	mu   sync.Mutex
	sets [][]*paillier.Ciphertext
}

func (r *signRecorder) ConvertSigns(req *SignRequest) (*SignResponse, error) {
	r.mu.Lock()
	r.sets = append(r.sets, req.V)
	r.mu.Unlock()
	return r.STPService.ConvertSigns(req)
}

// TestCacheRerandomizedUnlinkable is the ciphertext-distinguishability
// check on what actually leaves the process. A hit blinds the stored
// column directly — no re-randomisation in between, and from the first
// hit on out of the entry's power tables — so the V~ sets of the hit
// servings (the one that built the tables and two that found them) must
// be bitwise unlinkable to each other and to the entry (otherwise an
// observer of the SDC's traffic could tell "these requests asked the
// same thing"; the resent request's bytes deliberately tell that to the
// SDC, never beyond it), the entry must come out bit-identical, and every
// served V~ must still be a sign-preserving blinding of the cached I~ up
// to its one-time epsilon.
func TestCacheRerandomizedUnlinkable(t *testing.T) {
	wp := testWatchParams(t)
	params := TestParams(wp)
	stp, err := NewSTP(rand.Reader, params.PaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	rec := &signRecorder{STPService: stp}
	sdc, err := NewSDC("sdc-test", params, nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sdc.Close)
	oracle, err := watch.NewSystem(wp, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := &deployment{params: params, stp: stp, sdc: sdc, oracle: oracle}
	su := d.newSU(t, "su-1", 7)
	eirp := map[int]int64{1: maxEIRP(d)}
	req, err := su.PrepareRequest(eirp, geo.Disclosure{})
	if err != nil {
		t.Fatal(err)
	}
	missOnce(t, sdc, req)
	rec.sets = nil                       // sign tests count from the fill on
	want := d.decide(t, su, req).Granted // fills the cache

	entry := entryOf(t, sdc, req)
	if entry == nil {
		t.Fatal("request did not fill the cache")
	}
	stored := make([]*big.Int, len(entry.is))
	for i, ct := range entry.is {
		stored[i] = new(big.Int).Set(ct.C)
	}

	const servings = 3
	before := snapshotCacheEvents()
	tabledBefore := metrics().blindTable.Value()
	for serving := 0; serving < servings; serving++ {
		r, err := su.RefreshRequest(req)
		if err != nil {
			t.Fatal(err)
		}
		if got := d.decide(t, su, r).Granted; got != want {
			t.Fatalf("hit serving %d decided %v, the fill %v", serving, got, want)
		}
	}
	if delta := snapshotCacheEvents().deltaFrom(before); delta.hits != servings {
		t.Fatalf("cache events = %+v, want %d hits", delta, servings)
	}
	if got := metrics().blindTable.Value() - tabledBefore; got != servings {
		t.Fatalf("%d of %d hits were blinded from the entry's tables", got, servings)
	}
	if stats := sdc.CacheStats(); stats.TableBuilds != uint64(len(stored)) || stats.TableBytes == 0 {
		t.Fatalf("cache stats %+v, want one table per cached ciphertext (%d)", stats, len(stored))
	}
	if len(rec.sets) != 1+servings {
		t.Fatalf("recorded %d sign tests, want %d", len(rec.sets), 1+servings)
	}
	sets := map[string][]*paillier.Ciphertext{"entry": entry.is}
	for serving, set := range rec.sets[1:] {
		if len(set) != len(stored) {
			t.Fatalf("serving %d carries %d ciphertexts, the entry %d", serving, len(set), len(stored))
		}
		sets[fmt.Sprintf("serving %d", serving)] = set
	}
	seen := make(map[string]string)
	for name, set := range sets {
		for i, ct := range set {
			at := fmt.Sprintf("%s[%d]", name, i)
			if prev, dup := seen[ct.C.String()]; dup {
				t.Fatalf("%s and %s are the same ciphertext", prev, at)
			}
			seen[ct.C.String()] = at
		}
	}
	slotsOf := func(ct *paillier.Ciphertext) []*big.Int {
		t.Helper()
		v, err := stp.group.Decrypt(ct)
		if err != nil {
			t.Fatal(err)
		}
		slots, err := sdc.codec.Unpack(v)
		if err != nil {
			t.Fatal(err)
		}
		return slots
	}
	for i := range entry.is {
		if entry.is[i].C.Cmp(stored[i]) != 0 {
			t.Fatalf("serving mutated cached ciphertext %d in place", i)
		}
		is := slotsOf(entry.is[i])
		for serving, set := range rec.sets[1:] {
			// V = eps*(alpha*I - beta) slot by slot, alpha > beta > 0:
			// under one eps per ciphertext, V > 0 exactly where I > 0.
			vs := slotsOf(set[i])
			eps := 0
			for j := range is {
				agree := 1
				if (vs[j].Sign() > 0) != (is[j].Sign() > 0) {
					agree = -1
				}
				if eps == 0 {
					eps = agree
				}
				if agree != eps {
					t.Fatalf("serving %d ciphertext %d is not a blinding of the cached I: slot %d breaks the sign pattern", serving, i, j)
				}
			}
		}
	}
}

// TestCacheTablesBuiltOnce races goroutines into an entry's first hit:
// exactly one of them builds the tables (one per cached ciphertext, not
// one per racer), the others are served meanwhile — by the general
// exponentiation, or from the tables once they are installed — and every
// one of them decides what the fill decided. Run under -race.
func TestCacheTablesBuiltOnce(t *testing.T) {
	d := newCacheDeployment(t, nil)
	su := d.newSU(t, "su-1", 7)
	eirp := map[int]int64{1: maxEIRP(d)}
	req, err := su.PrepareRequest(eirp, geo.Disclosure{})
	if err != nil {
		t.Fatal(err)
	}
	missOnce(t, d.sdc, req)
	want := d.decide(t, su, req).Granted // fills the cache
	if want != d.oracleDecision(t, 7, eirp) {
		t.Fatal("fill disagrees with the oracle")
	}
	if stats := d.sdc.CacheStats(); stats.TableBuilds != 0 || stats.TableBytes != 0 {
		t.Fatalf("tables built at insert: %+v", stats)
	}

	const racers = 6
	refreshed := make([]*TransmissionRequest, racers)
	for i := range refreshed {
		if refreshed[i], err = su.RefreshRequest(req); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	responses := make([]*Response, racers)
	errs := make([]error, racers)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			responses[i], errs[i] = d.sdc.ProcessRequest(refreshed[i])
		}(i)
	}
	close(start)
	wg.Wait()
	for i := range responses {
		if errs[i] != nil {
			t.Fatalf("racer %d: %v", i, errs[i])
		}
		grant, err := su.OpenResponse(responses[i], refreshed[i], d.sdc.VerifyKey())
		if err != nil {
			t.Fatalf("racer %d: %v", i, err)
		}
		if grant.Granted != want {
			t.Fatalf("racer %d decided %v, the fill %v", i, grant.Granted, want)
		}
	}
	stats := d.sdc.CacheStats()
	if stats.Hits != racers {
		t.Fatalf("%d hits, want %d", stats.Hits, racers)
	}
	if stats.TableBuilds != uint64(req.Ciphertexts()) {
		t.Fatalf("%d tables built for an entry of %d ciphertexts", stats.TableBuilds, req.Ciphertexts())
	}
	if stats.Tabled < 1 || stats.Tabled > racers {
		t.Fatalf("%d of %d racing hits tabled", stats.Tabled, racers)
	}
	// With the tables in, the next hit finds them.
	r, err := su.RefreshRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.decide(t, su, r).Granted; got != want {
		t.Fatalf("tabled hit decided %v, the fill %v", got, want)
	}
	if after := d.sdc.CacheStats(); after.Tabled != stats.Tabled+1 || after.TableBuilds != stats.TableBuilds {
		t.Fatalf("hit after the race: %+v, before it %+v", after, stats)
	}
}

// TestCacheTableBudget squeezes the table byte budget down to one
// entry's tables: tabling a second entry takes the tables of the least
// recently used one back, whose next hit builds them again and takes the
// bytes from the other in turn; eviction releases a tabled entry's bytes;
// an entry refreshed after a PU update keeps — and is charged for,
// once — the tables of the ciphertexts it kept; and an entry that
// outweighs the budget on its own is served from the tables it built,
// keeps none, and is not tabled again. The bytes held never exceed the
// budget after an operation that accounts tables.
func TestCacheTableBudget(t *testing.T) {
	d := newCacheDeployment(t, func(p *Params) { p.CacheEntries = 2 })
	su := d.newSU(t, "su-1", 7)
	type shape struct {
		eirp map[int]int64
		req  *TransmissionRequest
		want bool
	}
	shapes := make([]*shape, 3)
	for c := range shapes {
		sh := &shape{eirp: map[int]int64{c: maxEIRP(d)}}
		var err error
		if sh.req, err = su.PrepareRequest(sh.eirp, geo.Disclosure{}); err != nil {
			t.Fatal(err)
		}
		shapes[c] = sh
	}
	a, b, c := shapes[0], shapes[1], shapes[2]
	// serve sends a refresh of the shape and reports whether any of it
	// was blinded from tables.
	serve := func(sh *shape) (tabled bool) {
		t.Helper()
		before := d.sdc.CacheStats().Tabled
		r, err := su.RefreshRequest(sh.req)
		if err != nil {
			t.Fatal(err)
		}
		sh.want = d.oracleDecision(t, 7, sh.eirp)
		if got := d.decide(t, su, r).Granted; got != sh.want {
			t.Fatalf("decision %v, oracle %v", got, sh.want)
		}
		return d.sdc.CacheStats().Tabled > before
	}
	budget := cacheTableBudget
	setBudget := func(bytes int) {
		budget = bytes
		d.setTableBudget(bytes)
	}
	expect := func(what string, builds, drops uint64, bytes int) {
		t.Helper()
		got := d.sdc.CacheStats()
		if got.TableBuilds != builds || got.TableDrops != drops || got.TableBytes != bytes {
			t.Fatalf("%s: %d builds, %d drops, %d table bytes; want %d, %d, %d",
				what, got.TableBuilds, got.TableDrops, got.TableBytes, builds, drops, bytes)
		}
		if bytes > budget {
			t.Fatalf("%s: %d table bytes over the budget of %d", what, bytes, budget)
		}
		if gauge := metrics().cacheTableBytes.Value(); gauge < 0 {
			t.Fatalf("%s: table bytes gauge went negative: %d", what, gauge)
		}
	}
	n := uint64(a.req.Ciphertexts())
	missOnce(t, d.sdc, a.req)
	missOnce(t, d.sdc, b.req)
	serve(a) // fills
	serve(b) // fills
	expect("after the fills", 0, 0, 0)
	if !serve(a) {
		t.Fatal("first hit was not served from the tables it built")
	}
	one := d.sdc.CacheStats().TableBytes
	if one == 0 || one%int(n) != 0 {
		t.Fatalf("first hit retained %d table bytes for %d ciphertexts", one, n)
	}
	expect("one entry tabled", n, 0, one)

	setBudget(one)
	if !serve(b) {
		t.Fatal("second entry's first hit was not served from its tables")
	}
	expect("second entry tabled over budget", 2*n, n, one)
	if !serve(a) {
		t.Fatal("dropped entry's next hit did not table it again")
	}
	expect("dropped entry hit again", 3*n, 2*n, one)

	// Eviction: with room for both, b is tabled again; a is then the more
	// recently used, so filling a third shape evicts b, tables and all.
	setBudget(cacheTableBudget)
	serve(b)
	serve(a)
	expect("both entries tabled", 4*n, 2*n, 2*one)
	missOnce(t, d.sdc, c.req)
	serve(c)
	expect("tabled entry evicted", 4*n, 2*n, one)
	if got := d.sdc.CachedDecisions(); got != 2 {
		t.Fatalf("%d cached decisions, want 2", got)
	}

	// Staleness: c is tabled, then a PU update lands in one slot group of
	// its footprint — one ciphertext per channel. The refreshed entry
	// keeps the other tables, the replaced one's bytes are released, and
	// the next hit tables the recomputed ciphertexts only.
	if !serve(c) {
		t.Fatal("third entry's first hit was not served from its tables")
	}
	expect("third entry tabled", 5*n, 2*n, 2*one)
	moved := d.params.Watch.Channels
	movedBytes := moved * one / int(n)
	pu := d.newPU(t, "tv-1", 8)
	d.tune(t, pu, 2, d.params.Watch.Quantize(d.params.Watch.SMinPUmW))
	stale := d.sdc.CacheStats().Stale
	if !serve(c) {
		t.Fatal("partly stale entry not served from the tables it kept")
	}
	if got := d.sdc.CacheStats().Stale; got != stale+1 {
		t.Fatalf("%d stale events, want %d", got, stale+1)
	}
	expect("tabled entry went partly stale", 5*n, 2*n, 2*one-movedBytes)
	if !serve(c) {
		t.Fatal("refreshed entry's hit was not served from tables")
	}
	expect("recomputed ciphertexts tabled", 5*n+uint64(moved), 2*n, 2*one)

	// An entry heavier than the whole budget. The next refresh of c trims
	// to the new budget (a, the least recently used, loses its tables);
	// the hit after it completes c's set, which no longer fits: built,
	// used, not kept, and not built again.
	setBudget(one - 1)
	d.off(t, pu)
	if !serve(c) {
		t.Fatal("partly stale entry not served from the tables it kept")
	}
	expect("refresh under a smaller budget", 5*n+uint64(moved), 3*n, one-movedBytes)
	if !serve(c) {
		t.Fatal("over-budget entry's hit was not served from the tables it built")
	}
	expect("entry outweighs the budget", 5*n+2*uint64(moved), 4*n, 0)
	if serve(c) {
		t.Fatal("over-budget entry kept its tables")
	}
	expect("over-budget entry hit again", 5*n+2*uint64(moved), 4*n, 0)
}

// TestCacheTablesRebuiltAfterDrop: an entry whose tables the byte budget
// took back is tabled again by its next hit, and serves from those
// tables from then on.
func TestCacheTablesRebuiltAfterDrop(t *testing.T) {
	d := newCacheDeployment(t, nil)
	su := d.newSU(t, "su-1", 7)
	reqs := make([]*TransmissionRequest, 2)
	for c := range reqs {
		var err error
		if reqs[c], err = su.PrepareRequest(map[int]int64{c: maxEIRP(d)}, geo.Disclosure{}); err != nil {
			t.Fatal(err)
		}
	}
	serve := func(req *TransmissionRequest) (tabled bool) {
		t.Helper()
		before := d.sdc.CacheStats().Tabled
		r, err := su.RefreshRequest(req)
		if err != nil {
			t.Fatal(err)
		}
		if !d.decide(t, su, r).Granted {
			t.Fatal("empty band denied")
		}
		return d.sdc.CacheStats().Tabled > before
	}
	n := uint64(reqs[0].Ciphertexts())
	for _, req := range reqs {
		missOnce(t, d.sdc, req)
	}
	serve(reqs[0]) // fills
	serve(reqs[1]) // fills
	if !serve(reqs[0]) {
		t.Fatal("first hit was not served from the tables it built")
	}
	one := d.sdc.CacheStats().TableBytes
	d.setTableBudget(one)
	serve(reqs[1]) // tabled, and the budget takes the first entry's tables
	if got := d.sdc.CacheStats(); got.TableDrops != n || got.TableBytes != one {
		t.Fatalf("after the squeeze: %+v, want %d drops and %d table bytes", got, n, one)
	}

	d.setTableBudget(cacheTableBudget)
	for hit := 0; hit < 2; hit++ {
		if !serve(reqs[0]) {
			t.Fatalf("hit %d after the drop was served through the plain path", hit)
		}
	}
	if got := d.sdc.CacheStats(); got.TableBuilds != 3*n || got.TableDrops != n || got.TableBytes != 2*one {
		t.Fatalf("after the rebuild: %+v, want %d builds, %d drops, %d table bytes", got, 3*n, n, 2*one)
	}
}

// TestCachePartialRefreshMatchesRecompute is the safety test of
// per-ciphertext freshness, with the group key in hand: whatever PU
// updates land between two servings of a band entry spanning four slot
// groups — outside the band, inside one group, inside every group — each
// ciphertext of the column the cache then holds decrypts to N - X*F of
// the budget as it stands, which is what an SDC without a cache computes.
// Ciphertexts no update touched are the very objects the previous entry
// held, tables included, and that entry is left as it was; while a
// rebuild is in flight (the budget still holds the entry's ciphertexts)
// the column still matches the budget a recompute would read, the rebuilt
// content replacing it at the first lookup after the write-back; and an
// update the journal refuses, rolled back by a rebuild to the same content
// under new ciphertexts, makes its group stale once.
func TestCachePartialRefreshMatchesRecompute(t *testing.T) {
	d := newCacheDeployment(t, nil)
	wp, sdc, stp := d.params.Watch, d.sdc, d.stp

	// Rows 1-3 of the 5x4 grid are blocks 5..19: slot groups 1-4 at four
	// slots a ciphertext, one ciphertext per group and channel.
	const home = 12
	su := d.newSU(t, "su-1", home)
	band, err := wp.Grid.RowBand(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	eirp := map[int]int64{1: maxEIRP(d)}
	req, err := su.PrepareRequest(eirp, band)
	if err != nil {
		t.Fatal(err)
	}
	k := sdc.codec.Slots()
	groups, perGroup := 4, wp.Channels
	if k != 4 || req.Ciphertexts() != groups*perGroup {
		t.Fatalf("band request has %d ciphertexts at %d slots, want %d at 4", req.Ciphertexts(), k, groups*perGroup)
	}
	// groupOf[i] is the slot group of the request's ciphertext i, in the
	// order of its cells and of the entry's ciphertexts.
	var groupOf []int
	if err := req.FP.ForEachGroup(func(_, g int, _ *paillier.Ciphertext) error {
		groupOf = append(groupOf, g)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	weak := wp.Quantize(wp.SMinPUmW)
	deltaX := big.NewInt(wp.DeltaInt)
	modulus := stp.GroupKey().N

	// entry returns the cached entry of the band request with its tables.
	entry := func() (*cacheEntry, []*paillier.PowerTable) {
		e := entryOf(t, sdc, req)
		if e == nil {
			return nil, nil
		}
		sdc.mu.Lock()
		defer sdc.mu.Unlock()
		return e, e.tabs
	}
	// holds reports whether the budget holds, in slot group g, the
	// ciphertexts e was computed from.
	holds := func(e *cacheEntry, g int) (bool, error) {
		i, same := 0, true
		err := req.FP.ForEachGroup(func(c, cg int, _ *paillier.Ciphertext) error {
			if cg == g {
				sdc.mu.Lock()
				n, err := sdc.nPack.GroupAt(c, g)
				sdc.mu.Unlock()
				if err != nil {
					return err
				}
				same = same && n == e.ns[i]
			}
			i++
			return nil
		})
		return same, err
	}
	// mismatch compares every ciphertext of e with N - X*F decrypted from
	// the budget as it stands and the request's own F.
	mismatch := func(e *cacheEntry) error {
		if len(e.is) != req.Ciphertexts() {
			return fmt.Errorf("entry holds %d ciphertexts, the request %d", len(e.is), req.Ciphertexts())
		}
		i := 0
		return req.FP.ForEachGroup(func(c, g int, f *paillier.Ciphertext) error {
			sdc.mu.Lock()
			n, err := sdc.nPack.GroupAt(c, g)
			sdc.mu.Unlock()
			if err != nil {
				return err
			}
			var plain [3]*big.Int
			for j, ct := range []*paillier.Ciphertext{n, f, e.is[i]} {
				if plain[j], err = stp.group.Decrypt(ct); err != nil {
					return err
				}
			}
			want := new(big.Int).Mul(deltaX, plain[1])
			want.Sub(plain[0], want)
			if want.Sub(want, plain[2]).Mod(want, modulus).Sign() != 0 {
				return fmt.Errorf("cached ciphertext %d (channel %d, group %d) is not N - X*F of the current budget", i, c, g)
			}
			i++
			return nil
		})
	}
	// serve submits a refresh and returns the counters it moved.
	serve := func(req *TransmissionRequest) CacheCounters {
		t.Helper()
		before := sdc.CacheStats()
		r, err := su.RefreshRequest(req)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := d.decide(t, su, r).Granted, d.oracleDecision(t, home, eirp); got != want {
			t.Fatalf("decision %v, oracle %v", got, want)
		}
		after := sdc.CacheStats()
		return CacheCounters{
			Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses, Stale: after.Stale - before.Stale,
			CellsKept: after.CellsKept - before.CellsKept, CellsRecomputed: after.CellsRecomputed - before.CellsRecomputed,
			TableBuilds: after.TableBuilds - before.TableBuilds,
		}
	}
	expect := func(what string, got, want CacheCounters) {
		t.Helper()
		if got != want {
			t.Fatalf("%s: counters moved by %+v, want %+v", what, got, want)
		}
	}
	// carried checks next against the entry prev it was refreshed from:
	// ciphertexts outside the moved groups are the same objects with the
	// same tables, those inside are new and untabled.
	carried := func(what string, prev *cacheEntry, prevTabs []*paillier.PowerTable, next *cacheEntry, nextTabs []*paillier.PowerTable, movedGroups ...int) {
		t.Helper()
		if next == prev {
			t.Fatalf("%s: the stale entry was changed in place", what)
		}
		for i, g := range groupOf {
			moved := slices.Contains(movedGroups, g)
			switch {
			case moved && (next.is[i] == prev.is[i] || nextTabs[i] != nil):
				t.Fatalf("%s: ciphertext %d of moved group %d was carried over", what, i, g)
			case !moved && (next.is[i] != prev.is[i] || nextTabs[i] == nil || nextTabs[i] != prevTabs[i]):
				t.Fatalf("%s: ciphertext %d of untouched group %d was not kept with its table", what, i, g)
			}
		}
	}
	all := uint64(groups * perGroup)

	missOnce(t, sdc, req)
	expect("fill", serve(req), CacheCounters{Misses: 1})
	e0, _ := entry()
	if e0 == nil {
		t.Fatal("request did not fill the cache")
	}
	if err := mismatch(e0); err != nil {
		t.Fatal(err)
	}
	expect("first hit", serve(req), CacheCounters{Hits: 1, TableBuilds: all})
	e, tabs0 := entry()
	if e != e0 {
		t.Fatal("a hit replaced the entry")
	}
	is0 := append([]*paillier.Ciphertext(nil), e0.is...)
	ns0 := append([]*paillier.Ciphertext(nil), e0.ns...)

	// No group of the band: block 2 is in group 0.
	d.tune(t, d.newPU(t, "tv-out", 2), 1, weak)
	expect("update outside the band", serve(req), CacheCounters{Hits: 1})
	if e, _ := entry(); e != e0 {
		t.Fatal("an update outside the footprint replaced the entry")
	}

	// One group: block 13, next to the SU, is in group 3.
	near := d.newPU(t, "tv-near", 13)
	d.tune(t, near, 1, weak)
	expect("update inside one group", serve(req),
		CacheCounters{Stale: 1, CellsKept: all - uint64(perGroup), CellsRecomputed: uint64(perGroup)})
	e1, tabs1 := entry()
	carried("update inside one group", e0, tabs0, e1, tabs1, 3)
	if err := mismatch(e1); err != nil {
		t.Fatal(err)
	}
	for i := range is0 {
		if e0.is[i] != is0[i] || e0.ns[i] != ns0[i] {
			t.Fatal("the replaced entry did not stay as it was")
		}
	}
	expect("hit on the refreshed entry", serve(req), CacheCounters{Hits: 1, TableBuilds: uint64(perGroup)})
	e, tabs1 = entry()
	if e != e1 {
		t.Fatal("a hit replaced the entry")
	}

	// Every group: blocks 5, 9 and 17 are in groups 1, 2 and 4, and the
	// PU in group 3 switches off.
	for i, b := range []geo.BlockID{5, 9, 17} {
		d.tune(t, d.newPU(t, watch.PUID(fmt.Sprintf("tv-%d", i)), b), 0, weak)
	}
	d.off(t, near)
	expect("updates inside every group", serve(req), CacheCounters{Stale: 1, CellsRecomputed: all})
	e2, tabs2 := entry()
	carried("updates inside every group", e1, tabs1, e2, tabs2, 1, 2, 3, 4)
	if err := mismatch(e2); err != nil {
		t.Fatal(err)
	}

	expect("hit on the entry refreshed in every group", serve(req), CacheCounters{Hits: 1, TableBuilds: all})
	e3, tabs3 := entry()
	if e3 != e2 {
		t.Fatal("a hit replaced the entry")
	}

	// A rebuild in flight. The journal hook runs once the update is
	// registered and before its rebuild starts, outside the lock, and
	// serves the band shape from there, stopping short of the license.
	inFlight := fmt.Errorf("the journal hook never ran")
	sdc.SetUpdateJournal(func(*PUUpdate) error {
		inFlight = func() error {
			if held, err := holds(e3, 3); err != nil || !held {
				return fmt.Errorf("trap fired outside the rebuild window: group 3's budget moved (%v)", err)
			}
			before := sdc.CacheStats()
			if _, err := sdc.ProcessShard(req); err != nil {
				return err
			}
			if after := sdc.CacheStats(); after.Hits != before.Hits+1 || after.Stale != before.Stale {
				return fmt.Errorf("lookup during the rebuild: %+v after %+v, want one hit", after, before)
			}
			if e, _ := entry(); e != e3 {
				return fmt.Errorf("lookup during the rebuild replaced the entry")
			}
			return mismatch(e3)
		}()
		return nil
	})
	d.tune(t, near, 1, weak)
	sdc.SetUpdateJournal(nil)
	if inFlight != nil {
		t.Fatalf("rebuild in flight: %v", inFlight)
	}
	expect("after the write-back", serve(req),
		CacheCounters{Stale: 1, CellsKept: all - uint64(perGroup), CellsRecomputed: uint64(perGroup)})
	e4, tabs4 := entry()
	carried("after the write-back", e3, tabs3, e4, tabs4, 3)
	if err := mismatch(e4); err != nil {
		t.Fatal(err)
	}

	// A rolled-back update: the journal refuses it, and the rollback
	// rebuilds group 3 to the content it had, under new ciphertexts. The
	// oracle never sees the update.
	refused := errors.New("journal refuses")
	sdc.SetUpdateJournal(func(*PUUpdate) error { return refused })
	u, err := near.Off()
	if err != nil {
		t.Fatal(err)
	}
	if err := sdc.HandlePUUpdate(u); !errors.Is(err, refused) {
		t.Fatalf("refused update: %v, want the journal's error", err)
	}
	sdc.SetUpdateJournal(nil)
	if held, err := holds(e4, 3); err != nil || held {
		t.Fatalf("the rollback left group 3's budget ciphertexts in place (%v)", err)
	}
	expect("after a rolled-back update", serve(req),
		CacheCounters{Stale: 1, CellsKept: all - uint64(perGroup), CellsRecomputed: uint64(perGroup)})
	e5, tabs5 := entry()
	carried("after a rolled-back update", e4, tabs4, e5, tabs5, 3)
	if err := mismatch(e5); err != nil {
		t.Fatal(err)
	}
}

// TestCacheNoTablesWithoutHits: a stream of requests that never repeats
// a shape builds nothing — tables are a first hit's business, as entries
// are a second miss's.
func TestCacheNoTablesWithoutHits(t *testing.T) {
	d := newCacheDeployment(t, nil)
	before := metrics().cacheTableBuilds.Value()
	for block := 0; block < 6; block++ {
		su := d.newSU(t, fmt.Sprintf("su-%d", block), geo.BlockID(block))
		for c := 0; c < d.params.Watch.Channels; c++ {
			eirp := map[int]int64{c: maxEIRP(d)}
			req, err := su.PrepareRequest(eirp, geo.Disclosure{})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := d.decide(t, su, req).Granted, d.oracleDecision(t, geo.BlockID(block), eirp); got != want {
				t.Fatalf("block %d channel %d: PISA=%v, oracle=%v", block, c, got, want)
			}
		}
	}
	stats := d.sdc.CacheStats()
	if stats.Misses != 18 || stats.Hits != 0 {
		t.Fatalf("cache stats %+v, want 18 misses and no hit", stats)
	}
	if stats.TableBuilds != 0 || stats.TableBytes != 0 || stats.Tabled != 0 ||
		metrics().cacheTableBuilds.Value() != before {
		t.Fatalf("tables built without a hit: %+v", stats)
	}
}

// TestCacheAdmitsOnSecondMiss pins the admission rule: a miss installs
// its column only if its key has missed before and is still among the
// last CacheEntries first misses the SDC remembers.
func TestCacheAdmitsOnSecondMiss(t *testing.T) {
	const entries = 4
	d := newCacheDeployment(t, func(p *Params) { p.CacheEntries = entries })
	a, b := d.newSU(t, "su-a", 7), d.newSU(t, "su-b", 7)
	// shape i of an SU: one channel at an EIRP of its own, so no two
	// shapes of one SU share an F.
	shape := func(su *SU, i int) *TransmissionRequest {
		t.Helper()
		req, err := su.PrepareRequest(map[int]int64{i % d.params.Watch.Channels: maxEIRP(d) - int64(i)}, geo.Disclosure{})
		if err != nil {
			t.Fatal(err)
		}
		return req
	}
	send := func(req *TransmissionRequest) {
		t.Helper()
		if _, err := d.sdc.ProcessShard(req); err != nil {
			t.Fatal(err)
		}
	}
	m := metrics()
	entries0, builds0 := m.cacheEntries.Value(), m.cacheTableBuilds.Value()
	// expect checks the live entries, the gauge beside them and the misses
	// admitted so far.
	expect := func(what string, live int, admitted uint64) {
		t.Helper()
		got := d.sdc.CachedDecisions()
		gauge := m.cacheEntries.Value() - entries0
		if stats := d.sdc.CacheStats(); got != live || gauge != int64(live) || stats.Admitted != admitted {
			t.Fatalf("%s: %d entries, gauge moved by %d, %d admitted; want %d, %d, %d",
				what, got, gauge, stats.Admitted, live, live, admitted)
		}
	}

	// Shapes that never repeat fill nothing.
	for i := 0; i < 2*entries; i++ {
		send(shape(a, i))
	}
	expect("one-off shapes", 0, 0)
	if stats := d.sdc.CacheStats(); stats.Misses != 2*entries || stats.TableBuilds != 0 ||
		m.cacheTableBuilds.Value() != builds0 {
		t.Fatalf("one-off shapes: %+v, want %d misses and no table built", stats, 2*entries)
	}

	// The second miss installs, the third request hits.
	admits0 := m.cacheAdmits.Value()
	x := shape(a, 100)
	send(x)
	expect("first miss", 0, 0)
	send(x)
	expect("second miss", 1, 1)
	if got := m.cacheAdmits.Value() - admits0; got != 1 {
		t.Fatalf("event=admit moved by %d, want 1", got)
	}
	hits := d.sdc.CacheStats().Hits
	send(x)
	if got := d.sdc.CacheStats().Hits; got != hits+1 {
		t.Fatalf("third request: %d hits, want %d", got, hits+1)
	}

	// A's first miss admits no other request of its shape: not B's, nor
	// A's own re-prepared request.
	reqA := shape(a, 200)
	reqB := shape(b, 200)
	send(reqA)
	send(reqB)
	expect("another SU's second miss", 1, 1)
	send(shape(a, 200))
	expect("re-prepared request's miss", 1, 1)

	// Close forgets first misses with the entries.
	d.sdc.Close()
	send(x)
	expect("first miss after Close", 0, 1)

	// entries newer first misses push the oldest out of the set; one fewer
	// does not.
	w := make([]*TransmissionRequest, 2*entries)
	for i := range w {
		w[i] = shape(a, 300+i)
	}
	for _, req := range w[:entries+1] {
		send(req)
	}
	send(w[0])
	expect("miss after entries newer first misses", 0, 1)
	for _, req := range w[entries+1 : 2*entries] {
		send(req)
	}
	send(w[0])
	expect("miss after entries-1 newer first misses", 1, 2)

	// Racing first misses of one shape install one entry between them.
	const racers = 4
	v := shape(a, 400)
	before := d.sdc.CacheStats()
	var wg sync.WaitGroup
	errs := make([]error, racers)
	for i := range racers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = d.sdc.ProcessShard(v)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("racer %d: %v", i, err)
		}
	}
	after := d.sdc.CacheStats()
	misses, admitted := after.Misses-before.Misses, after.Admitted-before.Admitted
	if misses < 2 || admitted < 1 || admitted > misses-1 || misses+after.Hits-before.Hits != racers {
		t.Fatalf("racing first misses: %d misses, %d admitted, %d hits of %d requests",
			misses, admitted, after.Hits-before.Hits, racers)
	}
	expect("racing first misses", 2, 2+admitted)
}

// hookReader wraps crypto/rand with a one-shot trap: the first read
// after arm() fires the callback (or fails, when armed with an error)
// and disarms itself. Rebuild passes read randomness outside the state
// lock, so the trap is where a test injects "a concurrent update
// registered mid-rebuild" or "entropy failed mid-rebuild"
// deterministically.
type hookReader struct {
	armed  atomic.Bool
	fail   atomic.Bool
	onRead func()
}

func (h *hookReader) Read(p []byte) (int, error) {
	if h.armed.CompareAndSwap(true, false) {
		if h.fail.Load() {
			return 0, fmt.Errorf("injected entropy failure")
		}
		if h.onRead != nil {
			h.onRead()
		}
	}
	return rand.Read(p)
}

// TestRebuildMetricsOutcomes pins satellite 2: every rebuild pass is
// observed exactly once under its outcome label — including the error
// paths, which the pre-label histogram silently dropped (undercounting
// exactly when rebuilds failed).
func TestRebuildMetricsOutcomes(t *testing.T) {
	hr := &hookReader{}
	wp := testWatchParams(t)
	params := TestParams(wp)
	stp, err := NewSTP(rand.Reader, params.PaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	sdc, err := NewSDC("sdc-test", params, nil, stp, WithRandom(hr))
	if err != nil {
		t.Fatal(err)
	}
	defer sdc.Close()
	col, err := sdc.EColumn(8)
	if err != nil {
		t.Fatal(err)
	}
	pu, err := NewPU(rand.Reader, "tv-1", 8, col, stp.GroupKey(), params)
	if err != nil {
		t.Fatal(err)
	}
	m := metrics()
	weak := wp.Quantize(wp.SMinPUmW)

	// Unarmed baseline: one clean rebuild, outcome ok.
	u, err := pu.Tune(1, weak)
	if err != nil {
		t.Fatal(err)
	}
	ok0, stale0, err0 := m.colRebuildOK.Count(), m.colRebuildStale.Count(), m.colRebuildErr.Count()
	retries0 := m.colRetries.Value()
	if err := sdc.HandlePUUpdate(u); err != nil {
		t.Fatal(err)
	}
	if d := m.colRebuildOK.Count() - ok0; d != 1 {
		t.Fatalf("clean rebuild observed %d ok passes, want 1", d)
	}

	// Stale pass: the trap bumps the column version while the rebuild
	// is encrypting (the window between snapshot and write-back), so
	// the first pass must be discarded as stale and retried.
	hr.onRead = func() {
		sdc.mu.Lock()
		sdc.groupVer[8/sdc.codec.Slots()]++
		sdc.mu.Unlock()
	}
	u, err = pu.Tune(1, weak)
	if err != nil {
		t.Fatal(err)
	}
	ok0, stale0, err0 = m.colRebuildOK.Count(), m.colRebuildStale.Count(), m.colRebuildErr.Count()
	retries0 = m.colRetries.Value()
	hr.armed.Store(true)
	if err := sdc.HandlePUUpdate(u); err != nil {
		t.Fatal(err)
	}
	if d := m.colRebuildStale.Count() - stale0; d != 1 {
		t.Fatalf("raced rebuild observed %d stale passes, want 1", d)
	}
	if d := m.colRebuildOK.Count() - ok0; d != 1 {
		t.Fatalf("raced rebuild observed %d ok passes, want 1 (the retry)", d)
	}
	if d := m.colRetries.Value() - retries0; d != 1 {
		t.Fatalf("raced rebuild counted %d retries, want 1", d)
	}

	// Error pass: entropy fails mid-rebuild; the pass must be observed
	// under outcome=error and the update surfaced as failed.
	hr.onRead = nil
	hr.fail.Store(true)
	u, err = pu.Tune(1, weak)
	if err != nil {
		t.Fatal(err)
	}
	ok0, stale0, err0 = m.colRebuildOK.Count(), m.colRebuildStale.Count(), m.colRebuildErr.Count()
	hr.armed.Store(true)
	if err := sdc.HandlePUUpdate(u); err == nil {
		t.Fatal("rebuild with failing entropy succeeded")
	}
	hr.fail.Store(false)
	if d := m.colRebuildErr.Count() - err0; d != 1 {
		t.Fatalf("failed rebuild observed %d error passes, want 1 (error passes were previously unobserved)", d)
	}
	if d := m.colRebuildOK.Count() - ok0; d != 0 {
		t.Fatalf("failed rebuild observed %d ok passes, want 0", d)
	}
	_ = stale0

	// Heal: a later clean update must leave the column consistent again.
	u, err = pu.Tune(1, weak)
	if err != nil {
		t.Fatal(err)
	}
	if err := sdc.HandlePUUpdate(u); err != nil {
		t.Fatalf("healing update failed: %v", err)
	}
}

// TestEColumnOnEveryFront: a full-window SDC, its router, a windowed
// shard and a router over windowed shards all serve the public E column
// of every block, and reading it while a rebuild is in flight neither
// waits for the rebuild nor counts as a discarded rebuild pass: the
// retries counter moves exactly with the outcome="stale" passes.
func TestEColumnOnEveryFront(t *testing.T) {
	hr := &hookReader{}
	wp := testWatchParams(t)
	params := TestParams(wp)
	stp, err := NewSTP(rand.Reader, params.PaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	mono, err := NewSDC("sdc-test", params, nil, stp, WithRandom(hr))
	if err != nil {
		t.Fatal(err)
	}
	defer mono.Close()
	windows, err := Windows(wp.Channels, 2)
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]ShardService, len(windows))
	for i, w := range windows {
		s, err := NewSDC("shard", params, nil, stp, WithChannelWindow(w[0], w[1]))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		shards[i] = s
	}
	router, err := NewRouter("router", params, nil, stp, shards)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := watch.NewSystem(wp, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := oracle.EMatrix()
	fronts := []struct {
		name    string
		eColumn func(geo.BlockID) ([]int64, error)
	}{
		{"monolith", mono.EColumn}, {"monolith's router", mono.Router().EColumn},
		{"windowed shard", shards[0].(*SDC).EColumn}, {"sharded router", router.EColumn},
	}
	check := func() error {
		for _, f := range fronts {
			for b := 0; b < wp.Grid.Blocks(); b++ {
				col, err := f.eColumn(geo.BlockID(b))
				if err != nil {
					return fmt.Errorf("%s: EColumn(%d): %w", f.name, b, err)
				}
				for c, v := range col {
					if want, _ := e.At(c, b); v != want || len(col) != wp.Channels {
						return fmt.Errorf("%s: EColumn(%d) = %v, E(%d, %d) = %d", f.name, b, col, c, b, want)
					}
				}
			}
			if _, err := f.eColumn(geo.BlockID(wp.Grid.Blocks())); err == nil {
				return fmt.Errorf("%s: EColumn past the last block accepted", f.name)
			}
		}
		return nil
	}
	if err := check(); err != nil {
		t.Fatal(err)
	}

	// The trap fires inside the rebuild pass, between snapshot and
	// write-back: it makes the pass stale and reads every column there.
	col, err := mono.EColumn(8)
	if err != nil {
		t.Fatal(err)
	}
	pu, err := NewPU(rand.Reader, "tv-1", 8, col, stp.GroupKey(), params)
	if err != nil {
		t.Fatal(err)
	}
	u, err := pu.Tune(1, wp.Quantize(wp.SMinPUmW))
	if err != nil {
		t.Fatal(err)
	}
	inFlight := fmt.Errorf("the trap never fired")
	hr.onRead = func() {
		mono.mu.Lock()
		mono.groupVer[8/mono.codec.Slots()]++
		mono.mu.Unlock()
		inFlight = check()
	}
	m := metrics()
	stale0, retries0 := m.colRebuildStale.Count(), m.colRetries.Value()
	hr.armed.Store(true)
	if err := mono.HandlePUUpdate(u); err != nil {
		t.Fatal(err)
	}
	if inFlight != nil {
		t.Fatalf("during the rebuild: %v", inFlight)
	}
	stale, retries := m.colRebuildStale.Count()-stale0, m.colRetries.Value()-retries0
	if stale != 1 || retries != stale {
		t.Fatalf("%d stale passes, %d retries; want 1 of each", stale, retries)
	}
}

// TestCacheChurnStress interleaves cache-hitting SU requests, PU
// updates (cache invalidations), and an export/restore cycle, and checks
// every stably-timed decision against the plaintext oracle's expectation
// for that state. The two requesters repeat one band shape spanning four
// slot groups while the PU switches inside one of them, so every
// invalidation keeps three groups' ciphertexts and recomputes one's. The
// updater holds each spectrum state until a request issued and answered
// inside it has been checked, so no state goes by unobserved. Run with
// -race this doubles as the cache's concurrency acceptance test.
// PISA_CACHE_CHURN_ITERS scales it up for soak runs.
func TestCacheChurnStress(t *testing.T) {
	iters := 10
	if v := os.Getenv("PISA_CACHE_CHURN_ITERS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("PISA_CACHE_CHURN_ITERS=%q invalid", v)
		}
		iters = n
	}
	t.Run("per-su", func(t *testing.T) { cacheChurnStress(t, iters) })
}

func cacheChurnStress(t *testing.T, iters int) {
	d := newCacheDeployment(t, nil)
	// One SU per requester goroutine; same block + same EIRP + same
	// disclosure means they share the shape, and each its own entry.
	sus := []*SU{d.newSU(t, "su-1", 7), d.newSU(t, "su-2", 7)}
	pu := d.newPU(t, "tv-1", 8)
	eirp := map[int]int64{1: maxEIRP(d)}
	weak := d.params.Watch.Quantize(d.params.Watch.SMinPUmW)
	// Rows 0-2 are blocks 0..14, slot groups 0-3; block 8 is in group 2.
	band, err := d.params.Watch.Grid.RowBand(0, 3)
	if err != nil {
		t.Fatal(err)
	}

	// Plaintext expectations for the two alternating spectrum states.
	if err := d.oracle.UpdatePU("tv-1", watch.Registration{Block: 8, Channel: 1, SignalUnits: weak}); err != nil {
		t.Fatal(err)
	}
	expectOn := d.oracleDecision(t, 7, eirp)
	if err := d.oracle.UpdatePU("tv-1", watch.Registration{Channel: -1}); err != nil {
		t.Fatal(err)
	}
	expectOff := d.oracleDecision(t, 7, eirp)
	if expectOn == expectOff {
		t.Fatalf("scenario not decision-flipping (on=%v off=%v)", expectOn, expectOff)
	}

	bases := make([]*TransmissionRequest, len(sus))
	for i, su := range sus {
		b, err := su.PrepareRequest(eirp, band)
		if err != nil {
			t.Fatal(err)
		}
		bases[i] = b
	}
	groups, moved := 4, d.params.Watch.Channels
	if got := bases[0].Ciphertexts(); got != groups*moved {
		t.Fatalf("band request has %d ciphertexts, want %d", got, groups*moved)
	}

	before := snapshotCacheEvents()
	requestsBefore := metrics().requests.Value()

	// gen is even at stable points; gen/2 counts completed toggles.
	// Toggle i (0-based) switches the PU ON when i is even, OFF when
	// odd — so after m completed toggles the PU is on iff m is odd.
	var gen atomic.Uint64
	expectAt := func(g uint64) bool {
		if (g/2)%2 == 1 {
			return expectOn
		}
		return expectOff
	}

	// A requester offers the generation of every stable decision it has
	// checked; the updater takes one from the state it is holding before
	// it moves on.
	checked := make(chan uint64)
	updaterDone := make(chan struct{})
	requestersDone := make(chan struct{})
	var requesters sync.WaitGroup
	for r := range sus {
		requesters.Add(1)
		go func() { // refresh-driven cache traffic
			defer requesters.Done()
			su, req := sus[r], bases[r]
			for i := 0; ; i++ {
				select {
				case <-updaterDone:
					return
				default:
				}
				refreshed, err := su.RefreshRequest(req)
				if err != nil {
					t.Errorf("requester %d refresh %d: %v", r, i, err)
					return
				}
				g1 := gen.Load()
				resp, err := d.sdc.ProcessRequest(refreshed)
				if err != nil {
					t.Errorf("requester %d request %d: %v", r, i, err)
					return
				}
				grant, err := su.OpenResponse(resp, refreshed, d.sdc.VerifyKey())
				if err != nil {
					t.Errorf("requester %d open %d: %v", r, i, err)
					return
				}
				if g2 := gen.Load(); g1 != g2 || g1%2 != 0 {
					continue // a toggle was in flight
				}
				// The decision must match the oracle for that exact state.
				if want := expectAt(g1); grant.Granted != want {
					t.Errorf("requester %d iter %d: stable-state decision %v, oracle says %v (gen %d)",
						r, i, grant.Granted, want, g1)
					return
				}
				select {
				case checked <- g1:
				default:
				}
			}
		}()
	}
	go func() {
		requesters.Wait()
		close(requestersDone)
	}()
	func() { // updater
		defer close(updaterDone)
		for i := 0; i < iters; i++ {
			var u *PUUpdate
			var err error
			if i%2 == 0 {
				u, err = pu.Tune(1, weak)
			} else {
				u, err = pu.Off()
			}
			if err == nil {
				gen.Add(1)
				err = d.sdc.HandlePUUpdate(u)
				gen.Add(1)
			}
			if err != nil {
				t.Errorf("toggle %d: %v", i, err)
				return
			}
			for held := false; !held; {
				select {
				case g := <-checked:
					held = g == gen.Load()
				case <-requestersDone:
					return
				}
			}
		}
	}()
	<-requestersDone
	if t.Failed() {
		t.FailNow()
	}

	// Every invalidation moved the PU's slot group and no other.
	stats := d.sdc.CacheStats()
	if stats.CellsRecomputed == 0 || stats.CellsKept != uint64(groups-1)*stats.CellsRecomputed {
		t.Fatalf("stale lookups kept %d ciphertexts and recomputed %d, want %d kept per recomputed",
			stats.CellsKept, stats.CellsRecomputed, groups-1)
	}

	// Quiescent exact check, plus a restore: a fresh SDC built from the
	// exported state (new cache, new budget ciphertexts) must agree.
	finalWant := expectAt(gen.Load())
	final, err := sus[0].RefreshRequest(bases[0])
	if err != nil {
		t.Fatal(err)
	}
	if got := d.decide(t, sus[0], final).Granted; got != finalWant {
		t.Fatalf("quiescent decision %v, oracle expectation %v", got, finalWant)
	}
	blob, err := d.sdc.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreSDC("sdc-test", d.params, nil, d.stp, blob, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	rreq, err := sus[0].RefreshRequest(bases[0])
	if err != nil {
		t.Fatal(err)
	}
	resp, err := restored.ProcessRequest(rreq)
	if err != nil {
		t.Fatal(err)
	}
	grant, err := sus[0].OpenResponse(resp, rreq, restored.VerifyKey())
	if err != nil {
		t.Fatal(err)
	}
	if grant.Granted != finalWant {
		t.Fatalf("restored-SDC decision %v, oracle expectation %v", grant.Granted, finalWant)
	}

	// Conservation: every request resolved to exactly one of
	// hit/miss/stale — across both SDCs and all the churn.
	delta := snapshotCacheEvents().deltaFrom(before)
	requests := metrics().requests.Value() - requestsBefore
	if got := delta.hits + delta.misses + delta.stale; got != requests {
		t.Fatalf("cache events (hit %d + miss %d + stale %d = %d) do not account for %d requests",
			delta.hits, delta.misses, delta.stale, got, requests)
	}
}

// TestCacheEntryMemory measures what the cache retains per entry, on
// installEntry alone with 2048-bit ciphertexts as the aggregate leaves
// them (modular products, whose integers keep six times their value in
// scratch): a never-seen 32-ciphertext shape costs 1.10 of its 32 x 512 B
// plus headers — on fresh_full that is what every request served leaves
// behind — and a 12-ciphertext band entry whose same slot group is
// refreshed over and over pins its first allocation for the two groups
// it keeps and one small one for the group last recomputed, 1 + 1/3 of a
// fresh entry's limbs, however many refreshes went by.
func TestCacheEntryMemory(t *testing.T) {
	const (
		ctBytes = 512
		entries = 48 // of each kind, so unrelated heap noise stays small beside them
		// Per ciphertext: the slice slot, the Ciphertext and the big.Int.
		// Per entry: the cacheEntry, its LRU element and map slot.
		headers, perEntry = 8 + 8 + 32, 512
	)
	nn := new(big.Int).Lsh(big.NewInt(1), 2*2048) // stands in for n^2; only its size matters
	nn.Sub(nn, big.NewInt(1))
	product := func() *paillier.Ciphertext {
		a, err := rand.Int(rand.Reader, nn)
		if err != nil {
			t.Fatal(err)
		}
		c := new(big.Int).Mul(a, a)
		return &paillier.Ciphertext{C: c.Mod(c, nn)}
	}
	column := func(is []*paillier.Ciphertext, computed []int) []*paillier.Ciphertext {
		is = append([]*paillier.Ciphertext(nil), is...)
		for _, k := range computed {
			is[k] = product()
		}
		return is
	}
	upTo := func(n int) []int {
		ks := make([]int, n)
		for k := range ks {
			ks[k] = k
		}
		return ks
	}
	heap := func() float64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	}
	sdc := &SDC{cache: newDecisionCache(2 * entries)}
	key := func(kind, i int) (k [32]byte) {
		k[0], k[1] = byte(kind), byte(i)
		return k
	}

	const full = 32
	before := heap()
	for i := 0; i < entries; i++ {
		sdc.installEntry(&cacheLookup{install: &cacheEntry{key: key(0, i)}, recompute: upTo(full)}, column(make([]*paillier.Ciphertext, full), upTo(full)))
	}
	retained := heap() - before
	ceiling := float64(entries * (full*(1.10*ctBytes+headers) + perEntry))
	t.Logf("%d fresh entries of %d ciphertexts retain %.0f B (%.0f B each, ceiling %.0f)", entries, full, retained, retained/entries, ceiling/entries)
	if retained > ceiling {
		t.Fatalf("fresh entries retain %.0f B each, more than %.0f", retained/entries, ceiling/entries)
	}

	const band, group, refreshes = 12, 4, 5
	before = heap()
	for i := 0; i < entries; i++ {
		e := &cacheEntry{key: key(1, i)}
		sdc.installEntry(&cacheLookup{install: e, recompute: upTo(band)}, column(make([]*paillier.Ciphertext, band), upTo(band)))
		for r := 0; r < refreshes; r++ {
			next := &cacheEntry{key: e.key}
			sdc.installEntry(&cacheLookup{install: next, recompute: upTo(group)}, column(e.is, upTo(group)))
			for k := group; k < band; k++ {
				if next.is[k] != e.is[k] {
					t.Fatalf("refresh %d: kept ciphertext %d is not the object the previous entry held", r, k)
				}
			}
			e = next
		}
	}
	retained = heap() - before
	ceiling = float64(entries * ((band+group)*(1.10*ctBytes+headers) + perEntry))
	t.Logf("%d band entries refreshed %d times retain %.0f B (%.0f B each, ceiling %.0f)", entries, refreshes, retained, retained/entries, ceiling/entries)
	if retained > ceiling {
		t.Fatalf("refreshed band entries retain %.0f B each, more than %.0f", retained/entries, ceiling/entries)
	}
	if got := sdc.cache.len(); got != 2*entries {
		t.Fatalf("cache holds %d entries, want %d", got, 2*entries)
	}
	runtime.KeepAlive(sdc)
}

// TestCacheStatsMatchObsSeries drives one SDC through every kind of cache
// event — first miss, admitted second miss, a hit that builds tables, a
// partly stale refresh, another request of the same shape, an eviction
// at CacheEntries, and table drops under the byte budget, trimmed and
// over it — and checks after each step that every
// CacheCounters field moved by exactly as much as the obs series of the
// same event. Not parallel: the series are process-wide, so no other test
// may move them meanwhile.
func TestCacheStatsMatchObsSeries(t *testing.T) {
	d := newCacheDeployment(t, func(p *Params) { p.CacheEntries = 2 })
	metrics() // registers the series before the first request would
	wp := d.params.Watch
	const home = 12
	su := d.newSU(t, "su-1", home)
	// Rows 1-3 of the grid: four slot groups of four blocks each.
	band, err := wp.Grid.RowBand(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	shape := func(channel int, disclosure geo.Disclosure) (*TransmissionRequest, map[int]int64) {
		t.Helper()
		eirp := map[int]int64{channel: maxEIRP(d)}
		req, err := su.PrepareRequest(eirp, disclosure)
		if err != nil {
			t.Fatal(err)
		}
		return req, eirp
	}
	a, aEIRP := shape(1, band)
	b, bEIRP := shape(0, band)
	c, cEIRP := shape(2, band)
	other, _ := shape(1, band) // a's shape in other ciphertexts

	series := map[string]string{
		"Hits":            `pisa_sdc_cache_events_total{event="hit"}`,
		"Misses":          `pisa_sdc_cache_events_total{event="miss"}`,
		"Stale":           `pisa_sdc_cache_events_total{event="stale"}`,
		"Evicted":         `pisa_sdc_cache_events_total{event="evict"}`,
		"Admitted":        `pisa_sdc_cache_events_total{event="admit"}`,
		"CellsKept":       `pisa_sdc_cache_cells_total{state="kept"}`,
		"CellsRecomputed": `pisa_sdc_cache_cells_total{state="recomputed"}`,
		"Tabled":          `pisa_sdc_blind_total{path="table"}`,
		"TableBuilds":     `pisa_sdc_cache_table_builds_total`,
		"TableDrops":      `pisa_sdc_cache_table_drops_total`,
	}
	// read returns every CacheCounters field and every series, by field.
	read := func() (stats, scraped map[string]uint64) {
		t.Helper()
		cs := d.sdc.CacheStats()
		stats = map[string]uint64{
			"Hits": cs.Hits, "Misses": cs.Misses, "Stale": cs.Stale,
			"Evicted": cs.Evicted, "Admitted": cs.Admitted, "CellsKept": cs.CellsKept,
			"CellsRecomputed": cs.CellsRecomputed, "Tabled": cs.Tabled,
			"TableBuilds": cs.TableBuilds, "TableDrops": cs.TableDrops,
		}
		var expo strings.Builder
		if err := obs.Default().WritePrometheus(&expo); err != nil {
			t.Fatal(err)
		}
		values := make(map[string]uint64)
		for _, line := range strings.Split(expo.String(), "\n") {
			if name, value, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
				if v, err := strconv.ParseUint(value, 10, 64); err == nil {
					values[name] = v
				}
			}
		}
		scraped = make(map[string]uint64, len(series))
		for field, name := range series {
			v, ok := values[name]
			if !ok {
				t.Fatalf("no series %s in the exposition", name)
			}
			scraped[field] = v
		}
		return stats, scraped
	}
	// step serves req once and checks that the fields named in moved, and
	// no others, moved, each as far as its series.
	step := func(what string, req *TransmissionRequest, eirp map[int]int64, moved ...string) {
		t.Helper()
		stats0, scraped0 := read()
		r, err := su.RefreshRequest(req)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := d.decide(t, su, r).Granted, d.oracleDecision(t, home, eirp); got != want {
			t.Fatalf("%s: decision %v, oracle %v", what, got, want)
		}
		stats1, scraped1 := read()
		for field, name := range series {
			ds, do := stats1[field]-stats0[field], scraped1[field]-scraped0[field]
			if ds != do {
				t.Errorf("%s: CacheStats().%s moved by %d, %s by %d", what, field, ds, name, do)
			}
			if want := slices.Contains(moved, field); (ds != 0) != want {
				t.Errorf("%s: CacheStats().%s moved by %d, want it to move: %v", what, field, ds, want)
			}
		}
	}

	step("first miss", a, aEIRP, "Misses")
	step("admitted second miss", a, aEIRP, "Misses", "Admitted")
	step("hit that builds tables", a, aEIRP, "Hits", "Tabled", "TableBuilds")
	// A PU at block 9 moves slot group 2 of the band, one ciphertext per
	// channel; the refresh keeps the other groups with their tables.
	d.tune(t, d.newPU(t, "tv-1", 9), 0, wp.Quantize(wp.SMinPUmW))
	step("partly stale refresh", a, aEIRP, "Stale", "CellsKept", "CellsRecomputed", "Tabled")
	step("same shape, other bytes", other, aEIRP, "Misses")
	step("first miss of b", b, bEIRP, "Misses")
	step("b admitted", b, bEIRP, "Misses", "Admitted")
	step("first miss of c", c, cEIRP, "Misses")
	step("c admitted, a evicted", c, cEIRP, "Misses", "Admitted", "Evicted")
	step("c tabled", c, cEIRP, "Hits", "Tabled", "TableBuilds")
	d.setTableBudget(d.sdc.CacheStats().TableBytes)
	step("b tabled, c's tables trimmed", b, bEIRP, "Hits", "Tabled", "TableBuilds", "TableDrops")
	d.setTableBudget(1)
	step("c over the budget", c, cEIRP, "Hits", "Tabled", "TableBuilds", "TableDrops")
}
