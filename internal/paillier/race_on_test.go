//go:build race

package paillier

// raceEnabled: under the race detector sync.Pool drops what is put into
// it, so a lane run's pooled scratch is allocated afresh and a byte count
// says nothing about the pool.
const raceEnabled = true
