package pisa

import (
	"crypto/rand"
	"fmt"
	"io"
	"math/big"

	"pisa/internal/paillier"
	"pisa/internal/parallel"
)

// This file implements the paper's stated future work (§VII): "we
// will pursue a model that does not involve an STP". The single
// semi-trusted key holder is replaced by k co-STPs, each holding only
// an additive share of the threshold decryption exponent
// (paillier.KeyShare). No single co-STP — and no coalition smaller
// than all of them — can decrypt PU or SU data. An unprivileged
// combiner (which sees only the blinded, sign-scrambled V values, as
// the original STP did) drives the sign conversion.

// shareService is one co-STP: it partially decrypts ciphertexts with
// its key share. localShare is the implementation; the tests fake a
// holder that fails or answers late.
type shareService interface {
	// PartialDecryptBatch computes this holder's partial for every
	// ciphertext.
	PartialDecryptBatch(cts []*paillier.Ciphertext) ([]*paillier.Partial, error)
}

// localShare wraps a key share as a shareService.
type localShare struct {
	share *paillier.KeyShare
}

// PartialDecryptBatch implements shareService. Partial decryptions
// are pure modular exponentiations, so they fan out over
// parallel.Auto() workers.
func (l localShare) PartialDecryptBatch(cts []*paillier.Ciphertext) ([]*paillier.Partial, error) {
	out := make([]*paillier.Partial, len(cts))
	err := parallel.For(parallel.Auto(), len(cts), func(i int) error {
		p, err := l.share.PartialDecrypt(cts[i])
		if err != nil {
			return fmt.Errorf("pisa: partial decrypt %d: %w", i, err)
		}
		out[i] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// DistSTP is the distributed replacement for STP: same STPService
// interface towards the SDC, but decryption requires every co-STP's
// cooperation. The combining code reads no key material: each share
// stays behind its holder's shareService.
type DistSTP struct {
	group   *paillier.PublicKey
	holders []shareService
	random  io.Reader

	// sus is the SU key registry, shared in kind with STP.
	sus *suRegistry
}

var _ STPService = (*DistSTP)(nil)

// NewDistSTP generates a fresh group key, splits it into count
// shares, and returns the combiner over one in-process co-STP per
// share. The dealer's private key material lives only inside this
// function; production deployments would run the dealer inside an
// enclave or use a distributed key-generation ceremony instead.
func NewDistSTP(random io.Reader, paillierBits, count int) (*DistSTP, error) {
	if random == nil {
		random = rand.Reader
	}
	sk, err := paillier.GenerateKey(random, paillierBits)
	if err != nil {
		return nil, fmt.Errorf("pisa: generate group key: %w", err)
	}
	shares, err := sk.SplitKey(random, count)
	if err != nil {
		return nil, err
	}
	holders := make([]shareService, len(shares))
	for i, s := range shares {
		holders[i] = localShare{s}
	}
	return newDistSTPWithShares(random, sk.Public(), holders)
}

// newDistSTPWithShares assembles a combiner over existing share
// holders.
func newDistSTPWithShares(random io.Reader, group *paillier.PublicKey, holders []shareService) (*DistSTP, error) {
	if len(holders) < 2 {
		return nil, fmt.Errorf("pisa: distributed STP needs at least 2 share holders, got %d", len(holders))
	}
	if group == nil {
		return nil, fmt.Errorf("pisa: distributed STP needs the group public key")
	}
	if random == nil {
		random = rand.Reader
	}
	// The combine loop fans out over a worker pool, so the source is
	// shared-reader wrapped up front (crypto/rand passes through
	// unchanged).
	random = paillier.SharedReader(random)
	return &DistSTP{
		group:   group,
		holders: holders,
		random:  random,
		sus:     newSURegistry(),
	}, nil
}

// GroupKey implements STPService.
func (d *DistSTP) GroupKey() *paillier.PublicKey { return d.group }

// RegisterSU stores an SU public key, with the same substitution
// protection as the single STP.
func (d *DistSTP) RegisterSU(id string, pk *paillier.PublicKey) error {
	return d.sus.register(id, pk)
}

// SUKey implements STPService.
func (d *DistSTP) SUKey(id string) (*paillier.PublicKey, error) {
	pk, ok := d.sus.lookup(id)
	if !ok {
		return nil, fmt.Errorf("pisa: SU %q not registered with distributed STP", id)
	}
	return pk, nil
}

// ConvertSigns implements STPService: every co-STP contributes a
// partial for every V in one partial-decryption round; the combiner
// multiplies partials, reads the blinded signs slot-wise, and encrypts
// them, slot-packed, under the SU's key (eq. 15) — the shared kernel
// (convertSigns) run with a threshold decryption.
func (d *DistSTP) ConvertSigns(req *SignRequest) (*SignResponse, error) {
	return convertSigns(signKernel{
		group:   d.group,
		suKey:   d.SUKey,
		decrypt: d.decryptAll,
		random:  d.random,
	}, req)
}

// decryptAll is the threshold decryption of one request's elements.
func (d *DistSTP) decryptAll(flat []*paillier.Ciphertext) ([]*big.Int, error) {
	// Ask every co-STP at once, one goroutine each, so the slowest
	// holder gates the round, not the sum of all of them.
	n := len(d.holders)
	batches := make([][]*paillier.Partial, n)
	err := parallel.For(n, n, func(h int) error {
		batch, err := d.holders[h].PartialDecryptBatch(flat)
		if err != nil {
			return fmt.Errorf("pisa: co-STP %d: %w", h, err)
		}
		if len(batch) != len(flat) {
			return fmt.Errorf("pisa: co-STP %d: returned %d partials, want %d", h, len(batch), len(flat))
		}
		batches[h] = batch
		return nil
	})
	if err != nil {
		return nil, err
	}
	vals := make([]*big.Int, len(flat))
	err = parallel.For(parallel.Auto(), len(flat), func(i int) error {
		perValue := make([]*paillier.Partial, len(d.holders))
		for h := range d.holders {
			perValue[h] = batches[h][i]
		}
		v, err := paillier.CombinePartials(d.group, perValue)
		if err != nil {
			return fmt.Errorf("pisa: combine V[%d]: %w", i, err)
		}
		vals[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return vals, nil
}
