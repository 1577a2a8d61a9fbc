package pisa

import (
	"crypto/rand"
	"fmt"
	"io"
	"math/big"
	"sync"

	"pisa/internal/paillier"
	"pisa/internal/parallel"
)

// STPService is the interface the SDC uses to reach the semi-trusted
// third party. An *STP satisfies it directly for in-process
// deployments; internal/node provides a TCP-backed implementation.
type STPService interface {
	// ConvertSigns performs the blinded sign test and key conversion
	// of eq. 15: decrypt each group-key ciphertext, map its sign to
	// +1/-1, and encrypt the signs, slot-packed, under the named SU's
	// key.
	ConvertSigns(req *SignRequest) (*SignResponse, error)
	// SUKey returns the registered public key of an SU: a prepared key
	// (an in-process registry's own, which callers share) or a fresh
	// object the caller owns (one decoded off a socket).
	SUKey(id string) (*paillier.PublicKey, error)
	// GroupKey returns the group public key pk_G.
	GroupKey() *paillier.PublicKey
}

// STP is the semi-trusted third party: sole holder of the group
// secret key, registry of SU public keys. It sees only blinded values
// whose sign carries no information thanks to the SDC's one-time
// epsilon flips (eq. 14).
type STP struct {
	group  *paillier.PrivateKey
	random io.Reader

	// sus is the SU key registry; each key in it tables its nonce base
	// on the first answer ConvertSigns encrypts under it.
	sus *suRegistry

	mu      sync.Mutex
	journal func(id string, pk *paillier.PublicKey) error // WAL hook for registrations

	// observer, when set (tests only), receives the plaintext V
	// values the STP decrypts, enabling the leakage analysis of
	// §V without instrumenting production code paths.
	observer func(suID string, values []*big.Int)
}

var _ STPService = (*STP)(nil)

// NewSTP generates the group key pair and an empty SU registry.
func NewSTP(random io.Reader, paillierBits int) (*STP, error) {
	if random == nil {
		random = rand.Reader
	}
	group, err := paillier.GenerateKey(random, paillierBits)
	if err != nil {
		return nil, fmt.Errorf("pisa: generate group key: %w", err)
	}
	return NewSTPWithKey(random, group), nil
}

// NewSTPWithKey wraps an existing group key (deterministic tests,
// state restoration).
func NewSTPWithKey(random io.Reader, group *paillier.PrivateKey) *STP {
	if random == nil {
		random = rand.Reader
	}
	// Sign conversion fans out over a worker pool, so the source is
	// shared-reader wrapped up front (crypto/rand passes through
	// unchanged).
	random = paillier.SharedReader(random)
	return &STP{
		group:  group,
		random: random,
		sus:    newSURegistry(),
	}
}

// GroupKey returns pk_G. Anyone may retrieve it (§III-C).
func (s *STP) GroupKey() *paillier.PublicKey {
	return s.group.Public()
}

// Deprecated: SetFastExp is a no-op that returns nil. Every key tables
// its nonce base on its first nonce; there is nothing left to arm. It
// exists only because the frozen benchmark (benchmark/deploy.go) calls
// it.
func (s *STP) SetFastExp(window, shortBits int) error { return nil }

// RegisterSU stores an SU's public key for later key conversion.
// Re-registration with the same key is idempotent; changing the key
// for an existing ID is rejected (it would let an attacker redirect
// another SU's responses). The registry keeps its own key object and
// never shares pk.
func (s *STP) RegisterSU(id string, pk *paillier.PublicKey) error {
	if err := s.sus.register(id, pk); err != nil {
		return err
	}
	s.mu.Lock()
	journal := s.journal
	s.mu.Unlock()
	// As with SDC updates, the WAL append happens outside every lock and
	// gates the acknowledgement: a journal failure surfaces to the SU,
	// which retries. The idempotent re-registration path journals too —
	// replay tolerates duplicate same-key records, and skipping it would
	// break the retry story: a first attempt whose append failed leaves
	// the key in the map, so acking the retry without a record would
	// silently lose the registration at the next crash.
	if journal != nil {
		if err := journal(id, pk); err != nil {
			return fmt.Errorf("pisa: journal SU registration: %w", err)
		}
	}
	return nil
}

// SetRegistrationJournal attaches the write-ahead hook for SU key
// registrations. A durable STP arms it only after recovery replay.
func (s *STP) SetRegistrationJournal(fn func(id string, pk *paillier.PublicKey) error) {
	s.mu.Lock()
	s.journal = fn
	s.mu.Unlock()
}

// SUKey implements STPService.
func (s *STP) SUKey(id string) (*paillier.PublicKey, error) {
	pk, ok := s.sus.lookup(id)
	if !ok {
		return nil, fmt.Errorf("pisa: SU %q not registered with STP", id)
	}
	return pk, nil
}

// ConvertSigns implements STPService: eq. 15 plus key conversion, the
// shared kernel (convertSigns) run with this STP's private key. All
// elements go through one batched decryption over parallel.Auto()
// workers, whose CRT context is set up once per worker.
func (s *STP) ConvertSigns(req *SignRequest) (*SignResponse, error) {
	return convertSigns(signKernel{
		group: s.group.Public(),
		suKey: s.SUKey,
		decrypt: func(flat []*paillier.Ciphertext) ([]*big.Int, error) {
			vals, err := s.group.DecryptBatch(flat, parallel.Auto())
			if err != nil {
				return nil, fmt.Errorf("pisa: decrypt V: %w", err)
			}
			return vals, nil
		},
		observe: s.observer,
		random:  s.random,
	}, req)
}
