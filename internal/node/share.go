package node

import (
	"fmt"
	"log/slog"
	"time"

	"pisa/internal/paillier"
	"pisa/internal/pisa"
	"pisa/internal/wire"
)

// ShareServer exposes one threshold key share (a co-STP of the
// distributed-STP extension) over TCP: it answers partial-decryption
// batches and nothing else.
type ShareServer struct {
	*server

	share *pisa.LocalShare
}

// NewShareServer wraps a key share behind the standard serve loop.
func NewShareServer(share *paillier.KeyShare, log *slog.Logger, timeout time.Duration) *ShareServer {
	s := &ShareServer{share: pisa.NewLocalShare(share)}
	s.server = newServer("costp", log, timeout, s.dispatch)
	return s
}

func (s *ShareServer) dispatch(env *wire.Envelope) (*wire.Envelope, error) {
	switch env.Kind {
	case wire.KindPartialRequest:
		if len(env.Ciphertexts) == 0 {
			return nil, fmt.Errorf("costp: empty partial request")
		}
		partials, err := s.share.PartialDecryptBatch(env.Ciphertexts)
		if err != nil {
			return nil, err
		}
		return &wire.Envelope{Kind: wire.KindPartialResponse, Partials: partials}, nil
	default:
		return nil, fmt.Errorf("costp: unexpected message kind %s", env.Kind)
	}
}

// ShareClient is the combiner's view of a remote co-STP. It
// implements pisa.ShareService.
type ShareClient struct {
	*client
}

var _ pisa.ShareService = (*ShareClient)(nil)

// DialShareWith connects lazily to the co-STP serving one key share.
func DialShareWith(opts Options, addr string) *ShareClient {
	return &ShareClient{client: newClient(addr, opts)}
}

// PartialDecryptBatch implements pisa.ShareService over the wire.
// Partial decryption is a pure function of the ciphertexts, so
// transport faults retry freely, also across a co-STP restart.
func (c *ShareClient) PartialDecryptBatch(cts []*paillier.Ciphertext) ([]*paillier.Partial, error) {
	resp, err := c.call(&wire.Envelope{Kind: wire.KindPartialRequest, Ciphertexts: cts}, wire.KindPartialResponse)
	if err != nil {
		return nil, err
	}
	if len(resp.Partials) != len(cts) {
		return nil, fmt.Errorf("node: co-STP returned %d partials, want %d", len(resp.Partials), len(cts))
	}
	return resp.Partials, nil
}
