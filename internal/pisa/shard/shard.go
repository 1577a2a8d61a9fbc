// Package shard forwards to the request front in package pisa (Router,
// DESIGN.md §15). It holds only the names the frozen benchmark/deploy.go
// and benchmark/trace.go import, and goes with ROADMAP item 3.
package shard

import (
	"pisa/internal/pisa"
	"pisa/internal/watch"
)

// Deprecated: Service is pisa.ShardService.
type Service = pisa.ShardService

// Deprecated: Windows is pisa.Windows.
func Windows(channels, n int) ([][2]int, error) { return pisa.Windows(channels, n) }

// Deprecated: NewRouter is pisa.NewRouter.
func NewRouter(issuer string, params pisa.Params, transmitters []watch.TVTransmitter, stp pisa.STPService, shards []Service) (*pisa.Router, error) {
	return pisa.NewRouter(issuer, params, transmitters, stp, shards)
}
