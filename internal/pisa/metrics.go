package pisa

import (
	"sync"

	"pisa/internal/obs"
)

// sdcMetrics is the SDC's instrumentation set, registered once into
// the process-wide obs registry. The counters and gauges describe the
// process's SDC role as a whole: every instance in the process — sdcd's
// one, or the several SDCs a test builds — adds into the same series
// (get-or-create registration makes that safe), gauges by delta.
//
// Stage labels follow the paper's pipeline (Figure 5 / eqs. 11-16); the
// license (eq. 17) is the router's stage (router.go):
//
//	snapshot     budget-entry snapshot + cache lookup (under s.mu)
//	aggregate    R~ = X (x) F~, I~ = N~ (-) R~   (eqs. 11-12)
//	blind        V~ = eps (x) (alpha (x) I~ (-) E(beta))   (eq. 14)
//	stp_convert  blinded sign-test round-trip to the STP   (eq. 15)
//	unblind      Q~ = eps (x) X~ (-) 1~ under the SU key   (eq. 16)
//	total        ProcessShard end to end, on every topology
type sdcMetrics struct {
	requests      *obs.Counter
	requestErrors *obs.Counter
	stage         map[string]*obs.Histogram

	puUpdate       *obs.Histogram
	puUpdateErrors *obs.Counter
	// Every rebuild pass is observed exactly once, labelled by how it
	// ended: committed (ok), discarded because a newer update raced in
	// (stale), or failed (error). Summing the three families gives the
	// true pass count — the pre-label histogram silently dropped error
	// passes, undercounting exactly when rebuilds were slow.
	colRebuildOK    *obs.Histogram
	colRebuildStale *obs.Histogram
	colRebuildErr   *obs.Histogram
	colRetries      *obs.Counter

	// Encrypted-decision cache: event counters plus the aggregate
	// stage split into served-from-cache vs recomputed, so the hit
	// speedup is directly readable from /metrics.
	cacheHits    *obs.Counter   // event="hit"
	cacheMisses  *obs.Counter   // event="miss"
	cacheStale   *obs.Counter   // event="stale" (a cell's budget ciphertext moved)
	cacheEvicts  *obs.Counter   // event="evict"
	cacheAdmits  *obs.Counter   // event="admit" (a miss installed: its key had missed before)
	cacheEntries *obs.Gauge     // live entries of every instance, by delta
	cacheAggHit  *obs.Histogram // path="hit": reuse cached Ĩ
	cacheAggMiss *obs.Histogram // path="miss": eq. 11-12 recompute, whole column or moved cells
	// What stale lookups on an entry covering the same cells did with
	// its ciphertexts, one tick per ciphertext.
	cacheCellsKept       *obs.Counter // state="kept": no PU update touched its blocks
	cacheCellsRecomputed *obs.Counter // state="recomputed"

	// Which exponentiation blinded a request: the cached entry's power
	// tables, for at least one of its cells, or the general one for all
	// of them. Hits that keep landing on plain mean the table byte budget
	// is too small for the deployment's shapes.
	blindTable       *obs.Counter // path="table"
	blindPlain       *obs.Counter // path="plain"
	cacheTableBuilds *obs.Counter
	cacheTableDrops  *obs.Counter
	cacheTableBytes  *obs.Gauge

	// SU-key cache (sukeys.go): a miss is one STP round trip.
	suKeyHits    *obs.Counter // event="hit"
	suKeyMisses  *obs.Counter // event="miss"
	suKeyEvicts  *obs.Counter // event="evict"
	suKeyEntries *obs.Gauge   // keys held by every instance, by delta
}

// requestStages enumerates the per-stage histogram labels in pipeline
// order.
var requestStages = []string{
	"snapshot", "aggregate", "blind", "stp_convert", "unblind", "total",
}

var (
	sdcMetricsOnce sync.Once
	sdcM           *sdcMetrics
)

// metrics lazily builds the shared SDC metric set.
func metrics() *sdcMetrics {
	sdcMetricsOnce.Do(func() {
		r := obs.Default()
		m := &sdcMetrics{
			requests: r.Counter("pisa_sdc_requests_total",
				"SU transmission requests processed by the SDC", nil),
			requestErrors: r.Counter("pisa_sdc_request_errors_total",
				"SU transmission requests that failed", nil),
			stage: make(map[string]*obs.Histogram, len(requestStages)),
			puUpdate: r.Histogram("pisa_sdc_pu_update_seconds",
				"PU channel-reception update handling (validate + register + journal + rebuild)", nil, nil),
			puUpdateErrors: r.Counter("pisa_sdc_pu_update_errors_total",
				"PU updates rejected or rolled back", nil),
			colRebuildOK: r.Histogram("pisa_sdc_column_rebuild_seconds",
				"one encrypted budget-column recomputation pass (eqs. 9-10), by outcome",
				obs.Labels{"outcome": "ok"}, nil),
			colRebuildStale: r.Histogram("pisa_sdc_column_rebuild_seconds",
				"one encrypted budget-column recomputation pass (eqs. 9-10), by outcome",
				obs.Labels{"outcome": "stale"}, nil),
			colRebuildErr: r.Histogram("pisa_sdc_column_rebuild_seconds",
				"one encrypted budget-column recomputation pass (eqs. 9-10), by outcome",
				obs.Labels{"outcome": "error"}, nil),
			colRetries: r.Counter("pisa_sdc_column_rebuild_retries_total",
				"column rebuild passes discarded because a newer update raced in", nil),
			cacheHits: r.Counter("pisa_sdc_cache_events_total",
				"encrypted-decision cache events by kind", obs.Labels{"event": "hit"}),
			cacheMisses: r.Counter("pisa_sdc_cache_events_total",
				"encrypted-decision cache events by kind", obs.Labels{"event": "miss"}),
			cacheStale: r.Counter("pisa_sdc_cache_events_total",
				"encrypted-decision cache events by kind", obs.Labels{"event": "stale"}),
			cacheEvicts: r.Counter("pisa_sdc_cache_events_total",
				"encrypted-decision cache events by kind", obs.Labels{"event": "evict"}),
			cacheAdmits: r.Counter("pisa_sdc_cache_events_total",
				"encrypted-decision cache events by kind", obs.Labels{"event": "admit"}),
			cacheEntries: r.Gauge("pisa_sdc_cache_entries",
				"encrypted-decision cache entries currently live", nil),
			cacheAggHit: r.Histogram("pisa_sdc_cache_aggregate_seconds",
				"aggregate stage cost split by cache path (hit = reuse the stored column, miss = recompute)",
				obs.Labels{"path": "hit"}, obs.IOBuckets),
			cacheAggMiss: r.Histogram("pisa_sdc_cache_aggregate_seconds",
				"aggregate stage cost split by cache path (hit = reuse the stored column, miss = recompute)",
				obs.Labels{"path": "miss"}, obs.IOBuckets),
			cacheCellsKept: r.Counter("pisa_sdc_cache_cells_total",
				"cached ciphertexts of entries found stale, by what the lookup did with them (kept = no PU update had touched the ciphertext's blocks)",
				obs.Labels{"state": "kept"}),
			cacheCellsRecomputed: r.Counter("pisa_sdc_cache_cells_total",
				"cached ciphertexts of entries found stale, by what the lookup did with them (kept = no PU update had touched the ciphertext's blocks)",
				obs.Labels{"state": "recomputed"}),
			blindTable: r.Counter("pisa_sdc_blind_total",
				"SU requests blinded, by exponentiation path (table = at least one ciphertext served from a cached entry's power tables; plain = the general exponentiation throughout: misses, and hits without tables)",
				obs.Labels{"path": "table"}),
			blindPlain: r.Counter("pisa_sdc_blind_total",
				"SU requests blinded, by exponentiation path (table = at least one ciphertext served from a cached entry's power tables; plain = the general exponentiation throughout: misses, and hits without tables)",
				obs.Labels{"path": "plain"}),
			cacheTableBuilds: r.Counter("pisa_sdc_cache_table_builds_total",
				"power tables built, one per cached ciphertext a hit found without one", nil),
			cacheTableDrops: r.Counter("pisa_sdc_cache_table_drops_total",
				"power tables dropped from live cache entries to stay inside the table byte budget", nil),
			cacheTableBytes: r.Gauge("pisa_sdc_cache_table_bytes",
				"bytes of power tables held by live cache entries", nil),
			suKeyHits: r.Counter("pisa_sdc_sukey_cache_events_total",
				"SU-key cache events by kind (SDC and shard router)", obs.Labels{"event": "hit"}),
			suKeyMisses: r.Counter("pisa_sdc_sukey_cache_events_total",
				"SU-key cache events by kind (SDC and shard router)", obs.Labels{"event": "miss"}),
			suKeyEvicts: r.Counter("pisa_sdc_sukey_cache_events_total",
				"SU-key cache events by kind (SDC and shard router)", obs.Labels{"event": "evict"}),
			suKeyEntries: r.Gauge("pisa_sdc_sukey_cache_entries",
				"SU keys currently held by the SU-key caches (SDC and shard router), fetches in flight included", nil),
		}
		for _, s := range requestStages {
			m.stage[s] = r.Histogram("pisa_sdc_request_stage_seconds",
				"per-stage SU request processing time in one SDC (Figure 5, eqs. 11-16; the license is the router's)",
				obs.Labels{"stage": s}, nil)
		}
		sdcM = m
	})
	return sdcM
}
