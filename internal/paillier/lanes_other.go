//go:build !amd64 || purego

package paillier

// laneCPU is false where the lane kernel is not built: every
// decryption runs on math/big.
const laneCPU = false

func ammLanes(z, a, b, m *uint64, k0 uint64, n int) {
	panic("paillier: lane kernel called in a build without it")
}
