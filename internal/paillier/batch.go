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
	if lanesOn() && sk.p.lane != nil && sk.q.lane != nil {
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

// BatchError is a batch call's error for one element: the first that
// a loop over the element-at-a-time call would have failed on, with
// that call's error.
type BatchError struct {
	Op    string // the batch: "decrypt", "scalar-mul", "encrypt", "pack", "nonce" or "table"
	Index int
	Err   error
}

func (e *BatchError) Error() string {
	return fmt.Sprintf("paillier: %s batch element %d: %v", e.Op, e.Index, e.Err)
}

func (e *BatchError) Unwrap() error { return e.Err }

// batchError is DecryptBatch's error for an invalid element i.
func batchError(i int, err error) error { return &BatchError{Op: "decrypt", Index: i, Err: err} }

// decryptRun decrypts a run of at most laneWidth ciphertexts, element
// base of the batch first, into out. The ciphertexts before the run's
// first invalid one are decrypted, on the kernel when there are at
// least laneMinRun of them (the empty lanes are padding), and the
// invalid one is returned as the batch's error. Each lane whose residue
// shows a nonce outside <H> finishes on the scalar continuation, and
// the plaintexts are recombined and counted as Decrypt does; a lane
// that shares a prime with n is invalid too, and stops the run there.
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
			var err error
			if out[i], err = d.decrypt(ct); err != nil {
				return batchError(base+i, err)
			}
		}
		return bad
	}
	xs := make([]*big.Int, len(cts))
	ap, aq := make([]*big.Int, len(cts)), make([]*big.Int, len(cts))
	for i, ct := range cts {
		xs[i], ap[i], aq[i] = ct.C, sk.p.a, sk.q.a
	}
	up, uq := sk.p.lane.exp(xs, ap), sk.q.lane.exp(xs, aq)
	laneRuns.decrypt.add(len(cts))
	for i := range cts {
		fullP, unitP := d.finish(&d.mp, &sk.p, up[i])
		fullQ, unitQ := d.finish(&d.mq, &sk.q, uq[i])
		if !unitP || !unitQ {
			return batchError(base+i, ErrInvalidCiphertext)
		}
		out[i] = d.combine(fullP, fullQ)
	}
	return bad
}

// scalarMinRun is the shortest run ScalarMulBatch gives the lane
// kernel: a kernel run costs the same for one cell as for eight, at 2048
// bits and 100-bit scalars about 2.2 ScalarMuls (1.11 against 0.50 ms,
// BenchmarkScalarMulBatch at -cpu 1), so runs of one and two stay on
// fbexp.
const scalarMinRun = 3

// ScalarMulBatch returns what ScalarMul(ks[i], cts[i]) returns for
// every i, bit for bit, or the error of the first element ScalarMul
// refuses, with its index. On a CPU with the lane kernel the elements go
// through it in runs of laneWidth, each raised to its own |k| modulo n^2
// in one pass (the power of a negative k is then inverted, which fails
// where ScalarMul fails, for a ciphertext that is not a unit); a run
// shorter than scalarMinRun, and every element elsewhere, takes
// ScalarMul itself. It runs on the caller's goroutine.
func (pk *PublicKey) ScalarMulBatch(ks []*big.Int, cts []*Ciphertext) ([]*Ciphertext, error) {
	if len(ks) != len(cts) {
		return nil, fmt.Errorf("paillier: scalar-mul batch of %d scalars for %d ciphertexts", len(ks), len(cts))
	}
	fail := func(i int, err error) error { return &BatchError{Op: "scalar-mul", Index: i, Err: err} }
	var bad error
	for i, ct := range cts {
		if err := pk.validate(ct); err != nil {
			cts, bad = cts[:i], fail(i, err)
			break
		}
	}
	out := make([]*Ciphertext, len(cts))
	lm := pk.squareLanes()
	for lo := 0; lo < len(cts); lo += laneWidth {
		hi := min(lo+laneWidth, len(cts))
		if lm == nil || hi-lo < scalarMinRun {
			for i := lo; i < hi; i++ {
				var err error
				if out[i], err = pk.ScalarMul(ks[i], cts[i]); err != nil {
					return nil, fail(i, err)
				}
			}
			continue
		}
		xs, es := make([]*big.Int, hi-lo), make([]*big.Int, hi-lo)
		for i := lo; i < hi; i++ {
			xs[i-lo], es[i-lo] = cts[i].C, abs(ks[i])
		}
		ys := lm.exp(xs, es)
		laneRuns.scalarMul.add(hi - lo)
		for l, y := range ys {
			var err error
			if out[lo+l], err = pk.signedPower(ks[lo+l], y); err != nil {
				return nil, fail(lo+l, err)
			}
		}
	}
	if bad != nil {
		return nil, bad
	}
	return out, nil
}

// abs returns |k|: k itself when k >= 0.
func abs(k *big.Int) *big.Int {
	if k.Sign() < 0 {
		return new(big.Int).Neg(k)
	}
	return k
}

// signedPower returns what ScalarMul(k, ct) returns given y = ct^|k|
// mod n^2: y for k >= 0, else its inverse, the unique one mod n^2 and
// so also the power of ct's inverse, which fails, as ScalarMul fails,
// exactly when ct is not a unit. It inverts y in place.
func (pk *PublicKey) signedPower(k, y *big.Int) (*Ciphertext, error) {
	if k.Sign() < 0 && y.ModInverse(y, pk.nSquared) == nil {
		return nil, ErrInvalidCiphertext
	}
	return &Ciphertext{C: y}, nil
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
// workers goroutines, on a lane comb eight per kernel pass. The
// exponents are drawn in index order (newRns), so the factors are the
// same at any worker count.
func (pk *PublicKey) NewNonceBatch(random io.Reader, count, workers int) ([]*Nonce, error) {
	rns, err := pk.newRns(random, count, workers)
	if err != nil {
		return nil, err
	}
	out := make([]*Nonce, count)
	for i, rn := range rns {
		out[i] = &Nonce{rn: rn}
	}
	return out, nil
}

// EncryptBatch encrypts every message of ms under pk with up to workers
// goroutines: out[i] encrypts ms[i] under the i-th nonce of one newRns
// draw, so the ciphertexts are the same at any worker count and on
// either comb, and on a lane comb the nonces are raised eight at a time.
// A message outside the plaintext domain fails the batch with its index
// before any nonce is drawn.
func (pk *PublicKey) EncryptBatch(random io.Reader, ms []*big.Int, workers int) ([]*Ciphertext, error) {
	encs := make([]*big.Int, len(ms))
	for i, m := range ms {
		var err error
		if encs[i], err = pk.encode(m); err != nil {
			return nil, &BatchError{Op: "encrypt", Index: i, Err: err}
		}
	}
	rns, err := pk.newRns(random, len(ms), workers)
	if err != nil {
		return nil, err
	}
	out := make([]*Ciphertext, len(ms))
	_ = parallel.ForChunks(workers, len(ms), func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			out[i] = pk.encryptEncoded(encs[i], rns[i])
		}
		return nil
	})
	return out, nil
}
