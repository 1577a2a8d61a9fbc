package bench

import (
	"fmt"
	"time"

	"pisa/internal/geo"
	"pisa/internal/pisa"
	"pisa/internal/pisa/shard"
)

// This file measures channel sharding (DESIGN.md §15): SU-request
// throughput of an N-shard fan-out router against the monolithic
// controller on the same deployment. The sweep feeds the committed
// BENCH_PISA.json next to the backend and cache numbers.

// ShardStats is one row of the scaling sweep.
type ShardStats struct {
	// Shards is the channel-partition width N.
	Shards   int `json:"shards"`
	Requests int `json:"requests"`
	// WallNs is the mean end-to-end router ProcessRequest on THIS
	// host, which runs the shards serially (WithSerialFanout) so their
	// individual timings are uncontended. It is the N-shards-one-host
	// number and includes the full N x fixed-cost tail.
	WallNs int64 `json:"wallNs"`
	// MaxShardNs is the mean service time of the slowest shard —
	// the fan-out's critical path when every shard has its own host.
	MaxShardNs int64 `json:"maxShardNs"`
	// MergeNs and LicenseNs are the router's own serial tail: the
	// homomorphic composition of the partial sums (eq. 17 additions)
	// and the sign/encrypt/mask of the license.
	MergeNs   int64 `json:"mergeNs"`
	LicenseNs int64 `json:"licenseNs"`
	// ModelNs = MaxShardNs + MergeNs + LicenseNs: the per-request
	// latency of the deployed topology (one host per shard, parallel
	// fan-out), composed from the uncontended serial measurements.
	ModelNs int64 `json:"modelNs"`
	// Speedup is monolithic ProcessRequest time over ModelNs — the
	// SU-throughput scaling the partition buys.
	Speedup float64 `json:"speedup"`
}

// ShardReport is the full scaling sweep on one deployment shape.
type ShardReport struct {
	Channels     int          `json:"channels"`
	Blocks       int          `json:"blocks"`
	PaillierBits int          `json:"paillierBits"`
	MonolithicNs int64        `json:"monolithicNs"`
	Rows         []ShardStats `json:"rows"`
}

// MeasureShards stands up one deployment (STP + SU shared throughout)
// and times the same request stream against a monolithic SDC and
// against routers over N windowed shards for each N in shardCounts.
// Decisions are checked for parity along the way — a sharded deploy
// that answered faster but differently would be worthless.
func MeasureShards(channels, cols, rows, bits int, shardCounts []int, iters int) (*ShardReport, error) {
	if iters < 1 {
		return nil, fmt.Errorf("bench: shard sweep needs iters >= 1, got %d", iters)
	}
	params, err := SmallParams(channels, cols, rows, bits)
	if err != nil {
		return nil, err
	}
	u, err := NewUniverse(params)
	if err != nil {
		return nil, err
	}
	defer u.SDC.Close()
	report := &ShardReport{
		Channels: channels, Blocks: cols * rows, PaillierBits: bits,
	}

	eirp := map[int]int64{0: params.Watch.Quantize(100)}
	req, err := u.SU.PrepareRequest(eirp, geo.Disclosure{})
	if err != nil {
		return nil, err
	}

	// Monolithic baseline on the universe's own SDC.
	var monoGranted bool
	start := time.Now()
	for n := 0; n < iters; n++ {
		resp, err := u.SDC.ProcessRequest(req)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			grant, err := u.SU.OpenResponse(resp, req, u.SDC.VerifyKey())
			if err != nil {
				return nil, err
			}
			monoGranted = grant.Granted
		}
	}
	report.MonolithicNs = time.Since(start).Nanoseconds() / int64(iters)

	for _, count := range shardCounts {
		row, err := measureShardRow(u, params, req, count, iters, monoGranted)
		if err != nil {
			return nil, err
		}
		row.Speedup = float64(report.MonolithicNs) / float64(row.ModelNs)
		report.Rows = append(report.Rows, *row)
	}
	return report, nil
}

// measureShardRow builds one N-shard router over fresh windowed SDCs
// (sharing the universe's STP and SU) and times iters requests.
func measureShardRow(u *Universe, params pisa.Params, req *pisa.TransmissionRequest, count, iters int, monoGranted bool) (*ShardStats, error) {
	windows, err := shard.Windows(params.Watch.Channels, count)
	if err != nil {
		return nil, err
	}
	services := make([]shard.Service, count)
	for i, w := range windows {
		s, err := pisa.NewSDC("bench-shard", params, nil, u.STP,
			pisa.WithChannelWindow(w[0], w[1]))
		if err != nil {
			return nil, err
		}
		defer s.Close()
		services[i] = s
	}
	// Serial fan-out: on a single benchmarking host, running the
	// shards one after another keeps each shard's measured service
	// time free of scheduler contention, which is what the one-host-
	// per-shard model needs.
	router, err := shard.NewRouter("bench-router", params, nil, u.STP, services,
		shard.WithSerialFanout())
	if err != nil {
		return nil, err
	}

	start := time.Now()
	for n := 0; n < iters; n++ {
		resp, err := router.ProcessRequest(req)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			grant, err := u.SU.OpenResponse(resp, req, router.VerifyKey())
			if err != nil {
				return nil, err
			}
			if grant.Granted != monoGranted {
				return nil, fmt.Errorf("bench: %d-shard decision %v disagrees with monolithic %v",
					count, grant.Granted, monoGranted)
			}
		}
	}
	wall := time.Since(start).Nanoseconds() / int64(iters)

	st := router.Stats()
	n := int64(st.Requests)
	row := &ShardStats{
		Shards:    count,
		Requests:  int(st.Requests),
		WallNs:    wall,
		MergeNs:   st.MergeNs / n,
		LicenseNs: st.LicenseNs / n,
	}
	for _, ns := range st.ShardNs {
		if mean := ns / n; mean > row.MaxShardNs {
			row.MaxShardNs = mean
		}
	}
	row.ModelNs = row.MaxShardNs + row.MergeNs + row.LicenseNs
	return row, nil
}
