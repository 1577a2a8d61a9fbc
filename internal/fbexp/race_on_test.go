//go:build race

package fbexp

// raceEnabled: under the race detector sync.Pool drops what is put into
// it, so math/big's pooled division temporaries are allocated afresh
// and an allocation count says nothing about this package.
const raceEnabled = true
