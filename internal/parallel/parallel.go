// Package parallel is the shared compute layer behind every
// embarrassingly-parallel cryptographic kernel in the repository: the
// element-wise homomorphic matrix operations, Paillier batch
// encryption/decryption, and the precomputation pools. It provides a
// bounded worker pool sized from GOMAXPROCS with chunked index-range
// scheduling and first-error cancellation.
//
// Every role passes Auto() — GOMAXPROCS, read at the call — so the Go
// runtime's GOMAXPROCS is the one control, and GOMAXPROCS=1 is the
// serial configuration the paper measures. The scheduling contract
// matters for reproducibility: with workers <= 1 the loop runs on the
// calling goroutine in strict index order, so a serial configuration
// performs exactly the same sequence of operations (including
// randomness draws) as the pre-parallel code — bit-for-bit identical
// ciphertexts. With workers > 1 the index space is split into
// contiguous chunks handed out to worker goroutines; each index still
// writes only its own output slot, so results are positionally
// deterministic even though execution order is not.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Auto reports the worker count for this process: GOMAXPROCS,
// i.e. "as many workers as the runtime schedules at once".
func Auto() int {
	return runtime.GOMAXPROCS(0)
}

// minChunk bounds scheduling overhead: a worker claims at least this
// many indices per pull. Homomorphic operations cost tens of
// microseconds to milliseconds each, so even tiny chunks amortise the
// atomic increment, but batching a few indices keeps the counter cool
// under many workers.
const minChunk = 1

// For runs fn(i) for every i in [0, n) using at most workers
// goroutines and returns the first error any invocation produced.
//
// workers is clamped to [1, n]; workers <= 1 runs serially on the
// calling goroutine in index order and returns at the first error.
// With workers > 1, an error stops the scheduling of further chunks
// (in-flight chunks finish their current index and exit), so the
// cancellation is prompt but individual fn calls are never
// interrupted. fn must be safe for concurrent invocation when
// workers > 1.
func For(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	// Chunk size targets ~4 pulls per worker for load balancing while
	// never dropping below minChunk.
	chunk := n / (workers * 4)
	if chunk < minChunk {
		chunk = minChunk
	}

	var (
		next     atomic.Int64
		failed   atomic.Bool
		errOnce  sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !failed.Load() {
				start := int(next.Add(int64(chunk))) - chunk
				if start >= n {
					return
				}
				end := start + chunk
				if end > n {
					end = n
				}
				for i := start; i < end; i++ {
					if failed.Load() {
						return
					}
					if err := fn(i); err != nil {
						errOnce.Do(func() { firstErr = err })
						failed.Store(true)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// ForChunks splits [0, n) into at most workers contiguous ranges of
// near-equal length and runs fn(lo, hi) once per range, each on its own
// goroutine, returning the first error. It is For for kernels that
// amortise something over a run of indices — per-worker scratch, one
// modular inversion shared by a whole range — and so want the largest
// ranges that still occupy every worker, not For's small dynamic ones.
// workers <= 1 is one call fn(0, n) on the calling goroutine.
func ForChunks(workers, n int, fn func(lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	workers = max(min(workers, n), 1)
	return For(workers, workers, func(w int) error {
		return fn(w*n/workers, (w+1)*n/workers)
	})
}
