//go:build !race

package paillier

const raceEnabled = false
