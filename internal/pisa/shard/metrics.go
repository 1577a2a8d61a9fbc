package shard

import (
	"strconv"
	"sync"

	"pisa/internal/obs"
)

// shardMetrics is the router's instrumentation set, registered once
// into the process-wide obs registry (get-or-create semantics, same
// convention as the SDC's metrics).
//
// Stage labels follow the sharded pipeline (DESIGN.md §15):
//
//	fanout  slice + per-shard ProcessShard calls, all at once: the
//	        slowest shard's time
//	merge   collection of the shards' grant indicators
//	license sign + encrypt + one eta-mask per indicator (eq. 17)
//	update  PU update broadcast
//	total   router ProcessRequest end to end
//
// Per-shard latencies land in pisa_router_shard_seconds{shard="i"} —
// one series per fan-out slot, bounded by the shard count.
type shardMetrics struct {
	requests      *obs.Counter
	requestErrors *obs.Counter
	updateErrors  *obs.Counter
	stage         map[string]*obs.Histogram

	mu     sync.Mutex
	shards map[int]*obs.Histogram
}

var routerStages = []string{"fanout", "merge", "license", "update", "total"}

var (
	shardMetricsOnce sync.Once
	shardM           *shardMetrics
)

// routerMetrics lazily builds the shared router metric set.
func routerMetrics() *shardMetrics {
	shardMetricsOnce.Do(func() {
		r := obs.Default()
		m := &shardMetrics{
			requests: r.Counter("pisa_router_requests_total",
				"SU transmission requests processed by the shard router", nil),
			requestErrors: r.Counter("pisa_router_request_errors_total",
				"sharded SU transmission requests that failed", nil),
			updateErrors: r.Counter("pisa_router_update_errors_total",
				"PU update broadcasts with at least one failed shard", nil),
			stage:  make(map[string]*obs.Histogram, len(routerStages)),
			shards: make(map[int]*obs.Histogram),
		}
		for _, s := range routerStages {
			m.stage[s] = r.Histogram("pisa_router_stage_seconds",
				"per-stage sharded request processing time (fan-out, merge, license)",
				obs.Labels{"stage": s}, nil)
		}
		shardM = m
	})
	return shardM
}

// shardCall returns the latency histogram for fan-out slot i,
// creating the labelled series on first use.
func (m *shardMetrics) shardCall(i int) *obs.Histogram {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.shards[i]
	if !ok {
		h = obs.Default().Histogram("pisa_router_shard_seconds",
			"one shard's ProcessShard latency as seen by the router",
			obs.Labels{"shard": strconv.Itoa(i)}, nil)
		m.shards[i] = h
	}
	return h
}
