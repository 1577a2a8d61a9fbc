package bench

import (
	"crypto/rand"
	"encoding/json"
	"fmt"
	"math/big"
	"os"
	"runtime"
	"time"

	"pisa/internal/paillier"
)

// This file holds the machine-readable micro-benchmark behind
// `pisabench -json` and the committed BENCH_PISA.json: the Paillier
// hot-path operations measured with the fixed-base engine off (the
// seed baseline) and on, so every future PR has numbers to beat.

// MicroResult is one measured operation configuration.
type MicroResult struct {
	// Op names the operation: encrypt, newNonce, rerandomize,
	// nonceBatch32, decryptShort, decryptContinued, scalarMul100.
	Op string `json:"op"`
	// Engine reports whether the fixed-base engine was armed.
	Engine bool `json:"engine"`
	// NsPerOp is the mean wall time per operation (per batch for
	// nonceBatch32).
	NsPerOp int64 `json:"nsPerOp"`
	// AllocsPerOp is the mean heap allocation count per operation.
	AllocsPerOp int64 `json:"allocsPerOp"`
	// Parallelism is the worker count batch operations fanned out
	// over (1 for the scalar operations).
	Parallelism int `json:"parallelism"`
	// Iters is how many times the operation ran.
	Iters int `json:"iters"`
}

// MicroReport is the full seed-vs-engine comparison for one key size.
type MicroReport struct {
	// Bits is the Paillier modulus size.
	Bits int `json:"bits"`
	// Window and ShortBits echo the engine configuration (0 = the
	// paillier defaults).
	Window    int `json:"window"`
	ShortBits int `json:"shortBits"`
	// TableBytes is the armed key's precomputed-table footprint.
	TableBytes int `json:"tableBytes"`
	// Results holds every measured row, engine-off first.
	Results []MicroResult `json:"results"`
	// Speedup maps op -> legacy-ns / engine-ns for the ops the engine
	// accelerates.
	Speedup map[string]float64 `json:"speedup"`
	// Backend, when present, is the PISA-vs-PIR head-to-head: the
	// encrypted query pipeline against the multi-server XOR-PIR
	// backend on the same deployment shape (latency, per-query
	// bandwidth, trust model, kill-one-of-k failover).
	Backend *BackendReport `json:"backend,omitempty"`
	// Cache, when present, is the encrypted-decision cache sweep:
	// aggregate-stage hit vs miss cost at rising fleet concentration
	// (DESIGN.md §14).
	Cache *CacheReport `json:"cache,omitempty"`
	// Shard, when present, is the channel-sharding scaling sweep:
	// SU-request throughput of an N-shard fan-out router against the
	// monolithic controller on the same deployment (DESIGN.md §15).
	Shard *ShardReport `json:"shard,omitempty"`
}

// measureOp times iters runs of op and samples the allocation rate.
func measureOp(iters int, op func() error) (nsPerOp, allocsPerOp int64, err error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := op(); err != nil {
			return 0, 0, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	n := int64(iters)
	return elapsed.Nanoseconds() / n, int64(after.Mallocs-before.Mallocs) / n, nil
}

// microOps enumerates the hot-path operations for one key view. The
// two decrypt rows and scalarMul100 are engine-independent control
// rows; the rest take the fast path when pk is armed. own carries a
// nonce that is a power of the key's published H and decrypts on the
// subgroup-order exponent; ct carries a foreign one and pays the
// continuation to p-1, as every decryption did before H was published.
func microOps(pk *paillier.PublicKey, sk *paillier.PrivateKey, ct, own *paillier.Ciphertext, workers int) []struct {
	name    string
	workers int
	op      func() error
} {
	m := big.NewInt(1<<59 - 1)
	k100, _ := new(big.Int).SetString("1267650600228229401496703205376", 10) // 2^100
	return []struct {
		name    string
		workers int
		op      func() error
	}{
		{"encrypt", 1, func() error { _, err := pk.Encrypt(rand.Reader, m); return err }},
		{"newNonce", 1, func() error { _, err := pk.NewNonce(rand.Reader); return err }},
		{"rerandomize", 1, func() error { _, err := pk.Rerandomize(rand.Reader, ct); return err }},
		{"nonceBatch32", workers, func() error { _, err := pk.NewNonceBatch(rand.Reader, 32, workers); return err }},
		{"decryptShort", 1, func() error { _, err := sk.Decrypt(own); return err }},
		{"decryptContinued", 1, func() error { _, err := sk.Decrypt(ct); return err }},
		{"scalarMul100", 1, func() error { _, err := pk.ScalarMul(k100, ct); return err }},
	}
}

// MeasureMicro runs the hot-path micro-benchmark with the engine off
// and on. iters applies to the scalar ops; batches run max(1, iters/8)
// times. workers bounds batch parallelism (values < 1 resolve to 1).
func MeasureMicro(bits, window, shortBits, iters, workers int) (*MicroReport, error) {
	if iters <= 0 {
		return nil, fmt.Errorf("bench: iters must be positive, got %d", iters)
	}
	if workers < 1 {
		workers = 1
	}
	sk, err := paillier.GenerateKey(rand.Reader, bits)
	if err != nil {
		return nil, err
	}
	// The seed baseline is a key known by its modulus alone: full-width
	// r^n nonces, foreign to the owner. The engine row tables the
	// published H.
	legacy := paillier.PublicKey{N: sk.N}
	fast := sk.PublicKey
	if err := fast.EnableFastExp(rand.Reader, window, shortBits); err != nil {
		return nil, err
	}
	report := &MicroReport{
		Bits:       bits,
		Window:     window,
		ShortBits:  shortBits,
		TableBytes: fast.FastExpSizeBytes(),
		Speedup:    make(map[string]float64),
	}
	ct, err := legacy.Encrypt(rand.Reader, big.NewInt(424242))
	if err != nil {
		return nil, err
	}
	own, err := fast.Encrypt(rand.Reader, big.NewInt(424242))
	if err != nil {
		return nil, err
	}
	legacyNs := make(map[string]int64)
	for _, cfg := range []struct {
		pk     *paillier.PublicKey
		engine bool
	}{{&legacy, false}, {&fast, true}} {
		for _, o := range microOps(cfg.pk, sk, ct, own, workers) {
			n := iters
			if o.name == "nonceBatch32" {
				if n = iters / 8; n < 1 {
					n = 1
				}
			}
			nsPerOp, allocs, err := measureOp(n, o.op)
			if err != nil {
				return nil, fmt.Errorf("bench: %s (engine=%v): %w", o.name, cfg.engine, err)
			}
			report.Results = append(report.Results, MicroResult{
				Op: o.name, Engine: cfg.engine, NsPerOp: nsPerOp,
				AllocsPerOp: allocs, Parallelism: o.workers, Iters: n,
			})
			if !cfg.engine {
				legacyNs[o.name] = nsPerOp
			} else if base := legacyNs[o.name]; base > 0 && nsPerOp > 0 {
				report.Speedup[o.name] = float64(base) / float64(nsPerOp)
			}
		}
	}
	return report, nil
}

// WriteJSON saves the report as indented JSON.
func (r *MicroReport) WriteJSON(path string) error {
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: marshal report: %w", err)
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	return nil
}
