package pir

import (
	"sync"
	"time"

	"pisa/internal/obs"
)

// dbMetrics is the replica-side instrumentation set, registered once
// into the process-wide obs registry. Every replica in a process shares
// the series (get-or-create registration makes that safe).
type dbMetrics struct {
	queries     *obs.Counter
	queryErrors *obs.Counter
	answerScan  *obs.Histogram
}

var (
	dbMetricsOnce sync.Once
	dbM           *dbMetrics
)

// metrics lazily builds the shared replica metric set.
func metrics() *dbMetrics {
	dbMetricsOnce.Do(func() {
		r := obs.Default()
		dbM = &dbMetrics{
			queries: r.Counter("pisa_pir_replica_queries_total",
				"PIR queries answered by this replica", obs.Labels{"table": "bitmap"}),
			queryErrors: r.Counter("pisa_pir_replica_query_errors_total",
				"PIR queries rejected (bad vector geometry)", nil),
			answerScan: r.Histogram("pisa_pir_replica_answer_seconds",
				"oblivious XOR scan answering one selection vector", nil, nil),
		}
	})
	return dbM
}

// ObserveQuery records one answered query's scan time.
func ObserveQuery(d time.Duration) {
	m := metrics()
	m.queries.Inc()
	m.answerScan.Observe(d.Seconds())
}

// ObserveQueryError counts one rejected query.
func ObserveQueryError() { metrics().queryErrors.Inc() }
