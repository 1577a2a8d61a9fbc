package bench

import (
	"fmt"
	"time"

	"pisa/internal/geo"
	"pisa/internal/obs"
)

// This file measures the SDC's encrypted-decision cache (DESIGN.md
// §14) under fleet concentration: how much of the aggregate pass
// (eqs. 11-12) a cache hit saves when several co-located SUs ask for
// the same request shape. The sweep feeds the committed
// BENCH_PISA.json next to the backend numbers.

// CacheStats is one fleet-concentration row: Concentration requests
// of one shape, so the first is a miss (full recompute, which fills
// the cache) and the rest are hits (blind the cached column directly).
type CacheStats struct {
	// Concentration is how many same-shape requests were issued —
	// the model for N co-located SUs asking the same question.
	Concentration int     `json:"concentration"`
	Requests      int     `json:"requests"`
	Hits          int     `json:"hits"`
	HitRate       float64 `json:"hitRate"`
	// AggregateHitNs is the mean served-from-cache aggregate stage
	// (a slice handed on); AggregateMissNs the mean cold
	// recompute. Their ratio is Speedup — the number the cache earns
	// its memory with.
	AggregateHitNs  int64   `json:"aggregateHitNs"`
	AggregateMissNs int64   `json:"aggregateMissNs"`
	Speedup         float64 `json:"speedup"`
	// ProcessNs is the mean end-to-end ProcessRequest over the row. The
	// STP round trip and license masking stay per request, and so does
	// the blinding — from the entry's power tables once its first hit
	// has built them — so this shrinks by the blinding's share, far
	// less than the aggregate split does.
	ProcessNs int64 `json:"processNs"`
}

// CacheReport is the full concentration sweep on one deployment.
type CacheReport struct {
	Channels     int          `json:"channels"`
	Blocks       int          `json:"blocks"`
	PaillierBits int          `json:"paillierBits"`
	Entries      int          `json:"entries"`
	Rows         []CacheStats `json:"rows"`
}

// histoSum reads a histogram's cumulative sum (seconds) so two reads
// bracket a measured region: deltaMean = deltaSum / deltaCount.
func histoSum(h *obs.Histogram) float64 {
	return h.Mean() * float64(h.Count())
}

// MeasureCache stands up one cache-enabled deployment and issues each
// concentration's worth of same-shape requests (distinct shapes across
// rows, so rows never serve each other). Means come from the SDC's own
// cache-path histograms, bracketed per row.
func MeasureCache(channels, cols, rows, bits, entries int, concentrations []int) (*CacheReport, error) {
	if entries < 1 {
		return nil, fmt.Errorf("bench: cache sweep needs entries >= 1, got %d", entries)
	}
	params, err := SmallParams(channels, cols, rows, bits)
	if err != nil {
		return nil, err
	}
	params.CacheEntries = entries
	u, err := NewUniverse(params)
	if err != nil {
		return nil, err
	}
	defer u.SDC.Close()
	report := &CacheReport{
		Channels: channels, Blocks: cols * rows, PaillierBits: bits, Entries: entries,
	}

	// The same series the SDC observes into (get-or-create semantics);
	// all reads below are deltas, so prior activity in the process
	// cannot leak into the rows.
	r := obs.Default()
	hits := r.Counter("pisa_sdc_cache_events_total",
		"encrypted-decision cache events by kind", obs.Labels{"event": "hit"})
	aggHit := r.Histogram("pisa_sdc_cache_aggregate_seconds",
		"aggregate stage cost split by cache path (hit = reuse the stored column, miss = recompute)",
		obs.Labels{"path": "hit"}, obs.IOBuckets)
	aggMiss := r.Histogram("pisa_sdc_cache_aggregate_seconds",
		"aggregate stage cost split by cache path (hit = reuse the stored column, miss = recompute)",
		obs.Labels{"path": "miss"}, obs.IOBuckets)

	for i, c := range concentrations {
		if c < 1 {
			return nil, fmt.Errorf("bench: concentration must be >= 1, got %d", c)
		}
		// A per-row EIRP value gives each row its own request shape.
		eirp := map[int]int64{0: params.Watch.Quantize(float64(100 * (i + 1)))}
		req, err := u.SU.PrepareRequest(eirp, geo.Disclosure{})
		if err != nil {
			return nil, err
		}
		hits0 := hits.Value()
		hitN0, hitS0 := aggHit.Count(), histoSum(aggHit)
		missN0, missS0 := aggMiss.Count(), histoSum(aggMiss)
		start := time.Now()
		for n := 0; n < c; n++ {
			if n > 0 {
				// Fresh ciphertexts, same shape — modelling the next SU in
				// the fleet with a refresh of the one benchmark SU. Cache
				// entries are scoped per requester, so one SU's refreshes
				// measure the same hit path a declared cache domain
				// (Params.CacheDomains) gives a real multi-SU fleet.
				if req, err = u.SU.RefreshRequest(req); err != nil {
					return nil, err
				}
			}
			if _, err := u.SDC.ProcessRequest(req); err != nil {
				return nil, err
			}
		}
		elapsed := time.Since(start)
		row := CacheStats{
			Concentration: c,
			Requests:      c,
			Hits:          int(hits.Value() - hits0),
			ProcessNs:     elapsed.Nanoseconds() / int64(c),
		}
		row.HitRate = float64(row.Hits) / float64(c)
		if dn := aggHit.Count() - hitN0; dn > 0 {
			row.AggregateHitNs = int64((histoSum(aggHit) - hitS0) / float64(dn) * 1e9)
		}
		if dn := aggMiss.Count() - missN0; dn > 0 {
			row.AggregateMissNs = int64((histoSum(aggMiss) - missS0) / float64(dn) * 1e9)
		}
		if row.AggregateHitNs > 0 {
			row.Speedup = float64(row.AggregateMissNs) / float64(row.AggregateHitNs)
		}
		report.Rows = append(report.Rows, row)
	}
	return report, nil
}
