//go:build !race

package fbexp

const raceEnabled = false
