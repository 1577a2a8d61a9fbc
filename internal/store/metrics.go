package store

import (
	"sync"

	"pisa/internal/obs"
)

// storeMetrics instruments the durability hot path. All Store
// instances in a process share the series: a daemon opens exactly one
// store, and tests that open several just aggregate.
type storeMetrics struct {
	appendSeconds *obs.Histogram
	appendBytes   *obs.Counter
	fsyncSeconds  *obs.Histogram
	snapSeconds   *obs.Histogram
	snapBytes     *obs.Gauge

	appendErrs *obs.Counter
	fsyncErrs  *obs.Counter
	snapErrs   *obs.Counter
}

var (
	storeMetricsOnce sync.Once
	storeM           *storeMetrics
)

func smetrics() *storeMetrics {
	storeMetricsOnce.Do(func() {
		r := obs.Default()
		errs := func(op string) *obs.Counter {
			return r.Counter("pisa_store_errors_total",
				"durability operations that failed", obs.Labels{"op": op})
		}
		storeM = &storeMetrics{
			appendSeconds: r.Histogram("pisa_store_wal_append_seconds",
				"one WAL record append: frame, write and fsync",
				nil, obs.IOBuckets),
			appendBytes: r.Counter("pisa_store_wal_append_bytes_total",
				"framed bytes appended to the WAL", nil),
			fsyncSeconds: r.Histogram("pisa_store_wal_fsync_seconds",
				"one fsync of the active WAL segment", nil, obs.IOBuckets),
			snapSeconds: r.Histogram("pisa_store_snapshot_seconds",
				"one atomic snapshot publication including WAL compaction", nil, nil),
			snapBytes: r.Gauge("pisa_store_snapshot_bytes",
				"payload size of the most recent snapshot", nil),
			appendErrs: errs("append"),
			fsyncErrs:  errs("fsync"),
			snapErrs:   errs("snapshot"),
		}
	})
	return storeM
}

// bridgeObs mirrors the store's live Stats into the process registry
// as gauge callbacks. Callback registration is replace-latest, so the
// most recently opened store owns the series (a daemon opens one).
func (s *Store) bridgeObs() {
	r := obs.Default()
	gauge := func(name, help string, read func(Stats) int64) {
		r.GaugeFunc(name, help, nil, func() float64 {
			return float64(read(s.Stats()))
		})
	}
	gauge("pisa_store_wal_last_index",
		"index of the most recently appended WAL record",
		func(st Stats) int64 { return int64(st.LastIndex) })
	gauge("pisa_store_snapshot_index",
		"last record index covered by the newest snapshot",
		func(st Stats) int64 { return int64(st.SnapshotIndex) })
	gauge("pisa_store_wal_records_since_snapshot",
		"appended records not yet covered by a snapshot",
		func(st Stats) int64 { return int64(st.RecordsSinceSnapshot) })
	gauge("pisa_store_wal_segments",
		"WAL segment files on disk, including the active one",
		func(st Stats) int64 { return int64(st.Segments) })
	gauge("pisa_store_wal_active_segment_bytes",
		"bytes in the active WAL segment",
		func(st Stats) int64 { return st.ActiveSegmentBytes })
}
