package node

import (
	"context"
	"crypto/rsa"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pisa/internal/geo"
	"pisa/internal/paillier"
	"pisa/internal/pisa"
	"pisa/internal/wire"
)

// Options configures a resilient client: how connects and calls are
// bounded, how many connections may run concurrently, and how retries
// behave. The zero value takes sensible defaults everywhere.
type Options struct {
	// DialTimeout bounds the TCP connect only; it never eats into the
	// per-call I/O budget. Default 10 s.
	DialTimeout time.Duration
	// CallTimeout bounds each attempt's request/reply exchange.
	// Default 5 min (paper-scale requests take minutes of compute).
	CallTimeout time.Duration
	// PoolSize bounds both the idle connections kept and the calls in
	// flight at once, so concurrent callers are neither serialised on
	// one socket nor free to open unbounded sockets. Default 4.
	PoolSize int
	// Retry governs backoff for idempotent calls and dial failures.
	Retry RetryPolicy
}

func (o Options) withDefaults() Options {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 10 * time.Second
	}
	if o.CallTimeout <= 0 {
		o.CallTimeout = defaultTimeout
	}
	if o.PoolSize < 1 {
		o.PoolSize = 4
	}
	o.Retry = o.Retry.withDefaults()
	return o
}

// ClientStats is a snapshot of a client's lifetime counters, the
// client-side mirror of server Stats.
type ClientStats struct {
	// Calls counts top-level RPCs issued (not attempts).
	Calls uint64
	// Dials counts TCP connects attempted; DialFailures the subset
	// that failed.
	Dials        uint64
	DialFailures uint64
	// Retries counts extra attempts after a transport fault.
	Retries uint64
	// RemoteErrors counts authoritative peer errors (never retried);
	// TransportFaults counts dropped/desynchronised connections.
	RemoteErrors    uint64
	TransportFaults uint64
}

// dialFunc establishes the raw transport; swapped in tests to model
// slow or failing dials deterministically.
type dialFunc func(addr string, timeout time.Duration) (net.Conn, error)

func netDial(addr string, timeout time.Duration) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, timeout)
}

// client is the shared resilient RPC core: a bounded connection pool
// to one server address, with retry/backoff for idempotent calls and
// per-call deadlines. A server that goes down is waited out by the
// retry budget; one that comes back on the same address (a restart
// from its state directory) is redialled on the next attempt.
type client struct {
	opts Options
	dial dialFunc
	addr string
	// slots bounds connections in flight (capacity PoolSize).
	slots chan struct{}

	calls, dials, dialFailures, retries atomic.Uint64
	remoteErrors, transportFaults       atomic.Uint64

	// mu guards the idle pool and the closed flag together, so a
	// connection checked in after Close is closed instead of pooled.
	mu     sync.Mutex
	idle   []*wire.Conn
	closed bool
}

func newClient(addr string, opts Options) *client {
	opts = opts.withDefaults()
	return &client{
		opts:  opts,
		dial:  netDial,
		addr:  addr,
		slots: make(chan struct{}, opts.PoolSize),
	}
}

// Stats returns a snapshot of the client's lifetime counters.
//
// The counters are independent atomics, so the snapshot is not a
// single instant — but it never tears the monotonic pairs: every
// increment path bumps the containing counter before the contained
// one (dials before dialFailures; calls before retries), and the
// loads below read each contained counter BEFORE its container.
// Anything the contained load saw was preceded by its container's
// increment, so DialFailures <= Dials and Retries <=
// (MaxAttempts-1)·Calls hold in every snapshot.
func (c *client) Stats() ClientStats {
	return ClientStats{
		DialFailures:    c.dialFailures.Load(),
		Dials:           c.dials.Load(),
		Retries:         c.retries.Load(),
		Calls:           c.calls.Load(),
		TransportFaults: c.transportFaults.Load(),
		RemoteErrors:    c.remoteErrors.Load(),
	}
}

// acquire takes a connection slot, bounding in-flight calls.
func (c *client) acquire(ctx context.Context) error {
	select {
	case c.slots <- struct{}{}:
		return nil
	default:
	}
	select {
	case c.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("node: waiting for connection slot: %w", ctx.Err())
	}
}

func (c *client) release() { <-c.slots }

// checkout returns a connection: a pooled idle one if available, else
// a fresh dial bounded by DialTimeout only.
func (c *client) checkout() (*wire.Conn, error) {
	c.mu.Lock()
	for len(c.idle) > 0 {
		conn := c.idle[len(c.idle)-1]
		c.idle = c.idle[:len(c.idle)-1]
		if conn.Dead() {
			conn.Close()
			continue
		}
		c.mu.Unlock()
		return conn, nil
	}
	c.mu.Unlock()
	c.dials.Add(1)
	raw, err := c.dial(c.addr, c.opts.DialTimeout)
	if err != nil {
		c.dialFailures.Add(1)
		return nil, err
	}
	return wire.NewConn(raw, c.opts.CallTimeout), nil
}

// checkin returns a healthy connection to the idle pool, or closes it
// when the pool is full, the connection is dead, or the client is
// closed.
func (c *client) checkin(conn *wire.Conn) {
	if !conn.Dead() {
		c.mu.Lock()
		if !c.closed && len(c.idle) < c.opts.PoolSize {
			c.idle = append(c.idle, conn)
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()
	}
	conn.Close()
}

// attempt runs one request/reply exchange. Any non-remote failure
// drops the connection — after a transport fault mid-call the gob
// framing is unsynchronised, and a reused socket could deliver the
// previous call's stale reply to the next caller.
func (c *client) attempt(ctx context.Context, req *wire.Envelope, want wire.Kind) (*wire.Envelope, error) {
	conn, err := c.checkout()
	if err != nil {
		c.transportFaults.Add(1)
		return nil, &dialError{addr: c.addr, err: err}
	}
	attemptCtx, cancel := context.WithTimeout(ctx, c.opts.CallTimeout)
	resp, err := conn.CallContext(attemptCtx, req, want)
	cancel()
	var remote *wire.RemoteError
	if err != nil && !errors.As(err, &remote) {
		conn.Close()
		c.transportFaults.Add(1)
		return nil, err
	}
	// Success, or the peer answered with an application error: either
	// way the transport is healthy.
	c.checkin(conn)
	return resp, err
}

// call performs one RPC with the default (background) context.
func (c *client) call(req *wire.Envelope, want wire.Kind) (*wire.Envelope, error) {
	return c.callCtx(context.Background(), req, want)
}

// callCtx performs one RPC with retry and backoff. Idempotent kinds
// retry any transport fault up to the retry budget; other kinds retry
// only failures that provably never reached the wire (dial errors).
// Remote errors return immediately.
func (c *client) callCtx(ctx context.Context, req *wire.Envelope, want wire.Kind) (*wire.Envelope, error) {
	c.calls.Add(1)
	if err := c.acquire(ctx); err != nil {
		return nil, err
	}
	defer c.release()
	retryAll := idempotentKind(req.Kind)
	var lastErr error
	for attempt := 1; ; attempt++ {
		if attempt > 1 {
			if err := c.backoff(ctx, attempt-1); err != nil {
				return nil, fmt.Errorf("node: %s: %w (last transport error: %v)", req.Kind, err, lastErr)
			}
			c.retries.Add(1)
		}
		resp, err := c.attempt(ctx, req, want)
		if err == nil {
			return resp, nil
		}
		if !Retryable(err) {
			c.remoteErrors.Add(1)
			return nil, err
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, lastErr
		}
		var dialErr *dialError
		if !retryAll && !errors.As(err, &dialErr) {
			// The request may have reached a server that mutates
			// state on it; re-sending could double-apply it.
			return nil, err
		}
		if attempt >= c.opts.Retry.MaxAttempts {
			return nil, fmt.Errorf("node: %s to %s: retry budget exhausted after %d attempts: %w",
				req.Kind, c.addr, attempt, lastErr)
		}
	}
}

// backoff sleeps the policy delay before attempt n+1, abandoning the
// wait when the context ends.
func (c *client) backoff(ctx context.Context, n int) error {
	t := time.NewTimer(c.opts.Retry.delay(n))
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close tears down every pooled connection; in-flight calls fail.
func (c *client) Close() error {
	c.mu.Lock()
	idle := c.idle
	c.idle, c.closed = nil, true
	c.mu.Unlock()
	var err error
	for _, conn := range idle {
		if cerr := conn.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// STPClient is the SDC's (and SUs') view of the remote STP server. It
// implements pisa.STPService.
type STPClient struct {
	*client

	groupKey *paillier.PublicKey
}

var _ pisa.STPService = (*STPClient)(nil)

// DialSTP connects to the STP server with default resilience options;
// timeout bounds each call's I/O (zero takes the default).
func DialSTP(addr string, timeout time.Duration) (*STPClient, error) {
	return DialSTPWith(Options{CallTimeout: timeout}, addr)
}

// DialSTPWith connects to the STP server at addr and eagerly fetches
// the group key, so the error surface stays on the constructor
// (GroupKey itself cannot fail, per pisa.STPService).
func DialSTPWith(opts Options, addr string) (*STPClient, error) {
	if addr == "" {
		return nil, errors.New("node: no STP address configured")
	}
	c := &STPClient{client: newClient(addr, opts)}
	c.bridgeObs("stp")
	resp, err := c.call(&wire.Envelope{Kind: wire.KindGroupKeyRequest}, wire.KindGroupKey)
	if err != nil {
		// Close the client so a pooled connection (kept open after a
		// remote error) does not leak out of a failed constructor.
		c.Close()
		return nil, fmt.Errorf("node: fetch group key: %w", err)
	}
	if resp.Paillier == nil {
		c.Close()
		return nil, fmt.Errorf("node: STP returned no group key")
	}
	if err := resp.Paillier.Check(); err != nil {
		c.Close()
		return nil, fmt.Errorf("node: STP group key: %w", err)
	}
	// The decoded key carries only its modulus and nonce base; fill the
	// derived fields before the roles built over this client share it
	// across workers.
	c.groupKey = resp.Paillier.Prepare()
	return c, nil
}

// GroupKey implements pisa.STPService.
func (c *STPClient) GroupKey() *paillier.PublicKey { return c.groupKey }

// ConvertSigns implements pisa.STPService.
func (c *STPClient) ConvertSigns(req *pisa.SignRequest) (*pisa.SignResponse, error) {
	resp, err := c.call(&wire.Envelope{Kind: wire.KindConvertRequest, SignRequest: req}, wire.KindConvertResponse)
	if err != nil {
		return nil, err
	}
	if resp.SignResponse == nil {
		return nil, fmt.Errorf("node: STP returned no sign response")
	}
	return resp.SignResponse, nil
}

// SUKey implements pisa.STPService.
func (c *STPClient) SUKey(id string) (*paillier.PublicKey, error) {
	resp, err := c.call(&wire.Envelope{Kind: wire.KindSUKeyRequest, SUID: id}, wire.KindSUKey)
	if err != nil {
		return nil, err
	}
	if resp.Paillier == nil {
		return nil, fmt.Errorf("node: STP returned no SU key")
	}
	return resp.Paillier, nil
}

// RegisterSU uploads an SU public key to the STP registry.
// Registration is idempotent server-side (same-key re-registration is
// a no-op), which is what makes its retries safe.
func (c *STPClient) RegisterSU(id string, pk *paillier.PublicKey) error {
	_, err := c.call(&wire.Envelope{Kind: wire.KindRegisterSU, SUID: id, Paillier: pk}, wire.KindAck)
	return err
}

// SDCClient is the PU/SU view of a remote SDC server.
type SDCClient struct {
	*client
}

// DialSDC connects to an SDC server lazily (first call dials) with
// default resilience options; timeout bounds each call's I/O.
func DialSDC(addr string, timeout time.Duration) *SDCClient {
	return DialSDCWith(Options{CallTimeout: timeout}, addr)
}

// DialSDCWith connects lazily to one SDC server (it has no standby, DESIGN.md §9).
func DialSDCWith(opts Options, addr string) *SDCClient {
	c := &SDCClient{client: newClient(addr, opts)}
	c.bridgeObs("sdc")
	return c
}

// SendUpdate delivers a PU channel-reception update.
func (c *SDCClient) SendUpdate(u *pisa.PUUpdate) error {
	_, err := c.call(&wire.Envelope{Kind: wire.KindPUUpdate, PUUpdate: u}, wire.KindAck)
	return err
}

// SendRequest delivers an SU transmission request and returns the
// SDC's (always identically-shaped) response.
func (c *SDCClient) SendRequest(r *pisa.TransmissionRequest) (*pisa.Response, error) {
	resp, err := c.call(&wire.Envelope{Kind: wire.KindSURequest, Request: r}, wire.KindSUResponse)
	if err != nil {
		return nil, err
	}
	if resp.Response == nil {
		return nil, fmt.Errorf("node: SDC returned no response payload")
	}
	return resp.Response, nil
}

// EColumn fetches the public E column for a block.
func (c *SDCClient) EColumn(b geo.BlockID) ([]int64, error) {
	resp, err := c.call(&wire.Envelope{Kind: wire.KindEColumnRequest, Block: int(b)}, wire.KindEColumn)
	if err != nil {
		return nil, err
	}
	return resp.EColumn, nil
}

// VerifyKey fetches the SDC's license verification key.
func (c *SDCClient) VerifyKey() (*rsa.PublicKey, error) {
	resp, err := c.call(&wire.Envelope{Kind: wire.KindVerifyKeyRequest}, wire.KindVerifyKey)
	if err != nil {
		return nil, err
	}
	if resp.VerifyKey == nil {
		return nil, fmt.Errorf("node: SDC returned no verify key")
	}
	return resp.VerifyKey, nil
}

// ProcessRequest aliases SendRequest so SDCClient satisfies
// pisa.SDCService and code written against an in-process controller
// runs unchanged against a remote one.
func (c *SDCClient) ProcessRequest(r *pisa.TransmissionRequest) (*pisa.Response, error) {
	return c.SendRequest(r)
}

// ProcessShard sends a (usually channel-sliced) SU request to a
// remote windowed shard and returns its grant indicators.
// Shard queries are idempotent, so the client's retry machinery
// re-sends them to the shard after a transport fault.
func (c *SDCClient) ProcessShard(r *pisa.TransmissionRequest) (*pisa.ShardAnswer, error) {
	resp, err := c.call(&wire.Envelope{Kind: wire.KindShardQuery, Request: r}, wire.KindShardAnswer)
	if err != nil {
		return nil, err
	}
	if resp.ShardAnswer == nil {
		return nil, fmt.Errorf("node: shard returned no answer payload")
	}
	return resp.ShardAnswer, nil
}

// HandlePUUpdate aliases SendUpdate so SDCClient satisfies
// pisa.ShardService and a router can broadcast PU updates to remote
// shards through the same client.
func (c *SDCClient) HandlePUUpdate(u *pisa.PUUpdate) error {
	return c.SendUpdate(u)
}

var _ pisa.SDCService = (*SDCClient)(nil)
