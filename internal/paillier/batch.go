package paillier

import (
	"crypto/rand"
	"fmt"
	"io"
	"math/big"
	"sync"

	"pisa/internal/parallel"
)

// This file holds the batch variants of the expensive primitives. Each
// element of a batch is an independent modular exponentiation, so the
// batches fan out over the shared worker pool (internal/parallel);
// workers <= 1 degenerates to the exact serial loop, preserving the
// order of randomness draws and therefore producing bit-for-bit the
// same ciphertexts as element-at-a-time calls.

// syncReader serialises Read calls so a caller-injected randomness
// source (deterministic test readers are usually not concurrency-safe)
// can be shared by a worker pool.
type syncReader struct {
	mu sync.Mutex
	r  io.Reader
}

func (s *syncReader) Read(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.r.Read(p)
}

// SharedReader wraps random for concurrent use by multiple goroutines.
// crypto/rand.Reader (and nil, which means crypto/rand.Reader) is
// already safe and returned as-is; anything else is wrapped in a
// mutex.
func SharedReader(random io.Reader) io.Reader {
	if random == nil || random == rand.Reader {
		return rand.Reader
	}
	if _, ok := random.(*syncReader); ok {
		return random
	}
	return &syncReader{r: random}
}

// laneDecrypt lets DecryptBatch take the lane path on a CPU that has
// it; tests clear it to run the scalar loop on the same keys.
var laneDecrypt = true

// laneMinRun is the shortest run DecryptBatch gives the lane kernel: a
// kernel run costs the same for one ciphertext as for eight, at 2048
// bits about one and a half scalar decryptions (BenchmarkDecryptBatch),
// so a run of one stays on math/big.
const laneMinRun = 2

// DecryptBatch decrypts every ciphertext with up to workers
// goroutines. Output slot i corresponds to cts[i], and an invalid
// ciphertext fails the batch with its index; with workers <= 1 the
// ciphertexts before it are decrypted and counted, as a loop over
// Decrypt would.
//
// On a CPU with the lane kernel the batch is cut into runs of
// laneWidth ciphertexts, which the workers claim one at a time: a run
// raises all its ciphertexts to a modulo p^2 in one kernel pass and to
// a modulo q^2 in another (decryptRun). Elsewhere each worker takes a
// contiguous chunk and decrypts it ciphertext by ciphertext. Either way
// the per-key CRT context (cached constants plus big.Int scratch) is
// set up once per chunk or run and reused across it.
func (sk *PrivateKey) DecryptBatch(cts []*Ciphertext, workers int) ([]*big.Int, error) {
	out := make([]*big.Int, len(cts))
	var err error
	if laneDecrypt && sk.p.lane != nil && sk.q.lane != nil {
		runs := (len(cts) + laneWidth - 1) / laneWidth
		err = parallel.For(workers, runs, func(r int) error {
			lo := r * laneWidth
			hi := min(lo+laneWidth, len(cts))
			return sk.newDecContext().decryptRun(cts[lo:hi], out[lo:hi], lo)
		})
	} else {
		// One context per contiguous chunk, so the scratch is never shared.
		err = parallel.ForChunks(workers, len(cts), func(lo, hi int) error {
			d := sk.newDecContext()
			for i := lo; i < hi; i++ {
				m, err := d.decrypt(cts[i])
				if err != nil {
					return batchError(i, err)
				}
				out[i] = m
			}
			return nil
		})
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// batchError is DecryptBatch's error for an invalid element i.
func batchError(i int, err error) error {
	return fmt.Errorf("paillier: decrypt batch element %d: %w", i, err)
}

// decryptRun decrypts a run of at most laneWidth ciphertexts, element
// base of the batch first, into out. The ciphertexts before the run's
// first invalid one are decrypted, on the kernel when there are at
// least laneMinRun of them (the empty lanes are padding), and the
// invalid one is returned as the batch's error. Each lane whose residue
// shows a nonce outside <H> finishes on the scalar continuation, and
// the plaintexts are recombined and counted as Decrypt does.
func (d *decContext) decryptRun(cts []*Ciphertext, out []*big.Int, base int) error {
	sk := d.sk
	var bad error
	for i, ct := range cts {
		if err := sk.validate(ct); err != nil {
			cts, bad = cts[:i], batchError(base+i, err)
			break
		}
	}
	if len(cts) < laneMinRun {
		for i, ct := range cts {
			out[i], _ = d.decrypt(ct) // validated above: no error
		}
		return bad
	}
	xs := make([]*big.Int, len(cts))
	for i, ct := range cts {
		xs[i] = ct.C
	}
	up, uq := sk.p.lane.exp(xs, sk.p.a), sk.q.lane.exp(xs, sk.q.a)
	for i := range cts {
		out[i] = d.combine(d.finish(&d.mp, &sk.p, up[i]), d.finish(&d.mq, &sk.q, uq[i]))
	}
	decryptLanes.used.Add(uint64(len(cts)))
	decryptLanes.padding.Add(uint64(laneWidth - len(cts)))
	return bad
}

// NegBatch is Neg over a batch with one modular inversion for all of
// it (Montgomery's simultaneous inversion): invert the product of the
// batch, then peel one element's inverse off at a time — three modular
// multiplications per element in place of an inversion that costs
// about eight. out[i] is bit for bit what Neg(cts[i]) returns.
//
// The product is a unit exactly when every element is, so a batch
// holding an element Neg would refuse is redone element by element:
// out[i] is then nil where Neg(cts[i]) fails, every other slot is still
// filled, and the error wraps ErrInvalidCiphertext with the first such
// index.
func (pk *PublicKey) NegBatch(cts []*Ciphertext) ([]*Ciphertext, error) {
	out := make([]*Ciphertext, len(cts))
	if len(cts) == 0 {
		return out, nil
	}
	// prefix[i] = cts[0] * ... * cts[i] mod n^2, as far as the batch is
	// in range.
	prefix := make([]*big.Int, 0, len(cts))
	for _, ct := range cts {
		if pk.validate(ct) != nil {
			break
		}
		p := ct.C
		if len(prefix) > 0 {
			p = new(big.Int).Mul(prefix[len(prefix)-1], ct.C)
			p.Mod(p, pk.nSquared)
		}
		prefix = append(prefix, p)
	}
	var inv *big.Int
	if len(prefix) == len(cts) {
		inv = new(big.Int).ModInverse(prefix[len(cts)-1], pk.nSquared)
	}
	if inv == nil {
		var first error
		for i, ct := range cts {
			neg, err := pk.Neg(ct)
			if err != nil && first == nil {
				first = fmt.Errorf("paillier: negate batch element %d: %w", i, err)
			}
			out[i] = neg
		}
		return out, first
	}
	// inv = (cts[0] * ... * cts[i])^-1 on entry to round i.
	for i := len(cts) - 1; i > 0; i-- {
		c := new(big.Int).Mul(inv, prefix[i-1])
		out[i] = &Ciphertext{C: c.Mod(c, pk.nSquared)}
		inv.Mul(inv, cts[i].C)
		inv.Mod(inv, pk.nSquared)
	}
	out[0] = &Ciphertext{C: inv}
	return out, nil
}

// NewNonceBatch precomputes count re-randomisation factors with up to
// workers goroutines — the bulk producer behind NoncePool refills.
func (pk *PublicKey) NewNonceBatch(random io.Reader, count, workers int) ([]*Nonce, error) {
	random = orDefaultRand(random)
	if workers > 1 {
		random = SharedReader(random)
	}
	out := make([]*Nonce, count)
	err := parallel.For(workers, count, func(i int) error {
		n, err := pk.NewNonce(random)
		if err != nil {
			return fmt.Errorf("paillier: nonce batch element %d: %w", i, err)
		}
		out[i] = n
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
