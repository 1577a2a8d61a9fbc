// Package node provides the networked deployment of PISA (Figure 3):
// TCP servers for the SDC and STP roles and clients for PUs, SUs and
// the SDC-to-STP link. Message framing comes from internal/wire; all
// protocol logic stays in internal/pisa.
//
// Clients are resilient by default. Each client talks to one address
// and drives a bounded connection pool to it (so concurrent callers
// are not serialised on one socket), separates the dial timeout from
// the per-call I/O deadline, and retries idempotent calls — public-data
// fetches, sign conversion, partial decryption, SU registration — with
// exponential backoff and jitter, which also rides out a server
// restarted on its address. Remote (application) errors are
// authoritative answers and are never retried; any transport fault
// drops the connection so a desynchronised gob stream can never feed
// a stale reply to a later call. Lifetime counters are exposed via
// ClientStats, mirroring the server-side Stats. The PIR fan-out is the
// one place that chooses among addresses (PIRClient).
package node

import (
	"crypto/rsa"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pisa/internal/geo"
	"pisa/internal/pisa"
	"pisa/internal/wire"
)

// defaultTimeout bounds one send or receive on server connections.
// Paper-scale requests take minutes of compute, so this is generous.
const defaultTimeout = 5 * time.Minute

// handler processes one envelope and returns the reply.
type handler func(*wire.Envelope) (*wire.Envelope, error)

// Stats is a snapshot of a server's lifetime counters, for
// operational visibility.
type Stats struct {
	// Connections counts accepted connections.
	Connections uint64
	// Requests counts envelopes handled (including ones that
	// produced handler errors).
	Requests uint64
	// Errors counts handler errors returned to peers.
	Errors uint64
}

// server is the shared accept/serve loop for both roles.
type server struct {
	name    string
	log     *slog.Logger
	handle  handler
	timeout time.Duration

	connections atomic.Uint64
	requests    atomic.Uint64
	errors      atomic.Uint64

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// Stats returns a snapshot of the lifetime counters. Errors is
// loaded before Requests (the increment paths bump requests first),
// so Errors <= Requests holds in every snapshot.
func (s *server) Stats() Stats {
	errs := s.errors.Load()
	return Stats{
		Connections: s.connections.Load(),
		Requests:    s.requests.Load(),
		Errors:      errs,
	}
}

func newServer(name string, log *slog.Logger, timeout time.Duration, h handler) *server {
	if log == nil {
		log = slog.Default()
	}
	if timeout <= 0 {
		timeout = defaultTimeout
	}
	s := &server{
		name:    name,
		log:     log.With("server", name),
		handle:  h,
		timeout: timeout,
		conns:   make(map[net.Conn]struct{}),
	}
	s.bridgeObs()
	return s
}

// Serve accepts connections on ln until Close; it blocks. Each
// connection handles a sequence of request/reply envelopes.
func (s *server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("%s: server closed", s.name)
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("%s: accept: %w", s.name, err)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.connections.Add(1)
		go s.serveConn(conn)
	}
}

func (s *server) serveConn(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
		s.wg.Done()
	}()
	c := wire.NewConn(conn, s.timeout)
	peer := conn.RemoteAddr().String()
	for {
		env, err := c.Recv()
		if err != nil && !errors.Is(err, wire.ErrMalformed) {
			if !wire.IsClosed(err) {
				s.log.Debug("recv failed", "peer", peer, "err", err)
			}
			return
		}
		// A malformed envelope is refused like any other request.
		s.requests.Add(1)
		var reply *wire.Envelope
		kind := "malformed"
		if err == nil {
			kind = env.Kind.String()
			reply, err = s.handle(env)
		}
		if err != nil {
			s.errors.Add(1)
			s.log.Debug("handler error", "peer", peer, "kind", kind, "err", err)
			if sendErr := c.SendError(err); sendErr != nil {
				return
			}
			continue
		}
		if err := c.Send(reply); err != nil {
			s.log.Debug("send failed", "peer", peer, "err", err)
			return
		}
	}
}

// Close stops accepting, closes live connections and waits for
// handlers to drain.
func (s *server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

// STPServer exposes a pisa.STP over TCP.
type STPServer struct {
	*server

	stp *pisa.STP
}

// NewSTPServer wraps an STP role instance.
func NewSTPServer(stp *pisa.STP, log *slog.Logger, timeout time.Duration) *STPServer {
	s := &STPServer{stp: stp}
	s.server = newServer("stp", log, timeout, s.dispatch)
	return s
}

func (s *STPServer) dispatch(env *wire.Envelope) (*wire.Envelope, error) {
	switch env.Kind {
	case wire.KindConvertRequest:
		if env.SignRequest == nil {
			return nil, fmt.Errorf("stp: convert request missing payload")
		}
		resp, err := s.stp.ConvertSigns(env.SignRequest)
		if err != nil {
			return nil, err
		}
		return &wire.Envelope{Kind: wire.KindConvertResponse, SignResponse: resp}, nil
	case wire.KindSUKeyRequest:
		pk, err := s.stp.SUKey(env.SUID)
		if err != nil {
			return nil, err
		}
		return &wire.Envelope{Kind: wire.KindSUKey, Paillier: pk}, nil
	case wire.KindGroupKeyRequest:
		return &wire.Envelope{Kind: wire.KindGroupKey, Paillier: s.stp.GroupKey()}, nil
	case wire.KindRegisterSU:
		if err := s.stp.RegisterSU(env.SUID, env.Paillier); err != nil {
			return nil, err
		}
		return &wire.Envelope{Kind: wire.KindAck}, nil
	default:
		return nil, fmt.Errorf("stp: unexpected message kind %s", env.Kind)
	}
}

// SDCBackend is what an SDC server needs from the role instance
// behind it. *pisa.Router satisfies it, as does *pisa.SDC, so one
// server wrapper fronts a router — of one full-window SDC or of many
// shards — and a windowed shard. A windowed shard's VerifyKey is nil: it
// issues no licenses, and the server refuses the key request.
type SDCBackend interface {
	ProcessRequest(req *pisa.TransmissionRequest) (*pisa.Response, error)
	HandlePUUpdate(u *pisa.PUUpdate) error
	EColumn(b geo.BlockID) ([]int64, error)
	VerifyKey() *rsa.PublicKey
}

// shardBackend is the optional extension a windowed shard implements;
// KindShardQuery is only served when the backend provides it.
type shardBackend interface {
	ProcessShard(req *pisa.TransmissionRequest) (*pisa.ShardAnswer, error)
}

// SDCServer exposes an SDC role instance over TCP.
type SDCServer struct {
	*server

	sdc SDCBackend
}

// NewSDCServer wraps an SDC role instance (monolithic SDC, windowed
// shard, or shard router).
func NewSDCServer(sdc SDCBackend, log *slog.Logger, timeout time.Duration) *SDCServer {
	s := &SDCServer{sdc: sdc}
	s.server = newServer("sdc", log, timeout, s.dispatch)
	return s
}

func (s *SDCServer) dispatch(env *wire.Envelope) (*wire.Envelope, error) {
	switch env.Kind {
	case wire.KindPUUpdate:
		if env.PUUpdate == nil {
			return nil, fmt.Errorf("sdc: update missing payload")
		}
		if err := s.sdc.HandlePUUpdate(env.PUUpdate); err != nil {
			return nil, err
		}
		return &wire.Envelope{Kind: wire.KindAck}, nil
	case wire.KindSURequest:
		if env.Request == nil {
			return nil, fmt.Errorf("sdc: request missing payload")
		}
		resp, err := s.sdc.ProcessRequest(env.Request)
		if err != nil {
			return nil, err
		}
		return &wire.Envelope{Kind: wire.KindSUResponse, Response: resp}, nil
	case wire.KindEColumnRequest:
		col, err := s.sdc.EColumn(geo.BlockID(env.Block))
		if err != nil {
			return nil, err
		}
		return &wire.Envelope{Kind: wire.KindEColumn, EColumn: col}, nil
	case wire.KindVerifyKeyRequest:
		vk := s.sdc.VerifyKey()
		if vk == nil {
			return nil, fmt.Errorf("sdc: shard does not issue licenses; ask the router")
		}
		return &wire.Envelope{Kind: wire.KindVerifyKey, VerifyKey: vk}, nil
	case wire.KindShardQuery:
		sb, ok := s.sdc.(shardBackend)
		if !ok {
			return nil, fmt.Errorf("sdc: this instance does not serve shard queries")
		}
		if env.Request == nil {
			return nil, fmt.Errorf("sdc: shard query missing payload")
		}
		ans, err := sb.ProcessShard(env.Request)
		if err != nil {
			return nil, err
		}
		return &wire.Envelope{Kind: wire.KindShardAnswer, ShardAnswer: ans}, nil
	default:
		return nil, fmt.Errorf("sdc: unexpected message kind %s", env.Kind)
	}
}
