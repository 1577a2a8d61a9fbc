// Package wire defines the message envelope and connection framing
// for the networked PISA deployment (Figure 3 of the paper): PUs and
// SUs talk to the SDC server; the SDC talks to the STP server. All
// messages are gob-encoded envelopes over TCP.
package wire

import (
	"context"
	"crypto/rsa"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pisa/internal/paillier"
	"pisa/internal/pir"
	"pisa/internal/pisa"
)

// Kind discriminates envelope payloads.
type Kind uint8

// Message kinds. Requests and replies are paired.
const (
	KindError Kind = iota + 1

	KindPUUpdate // PU -> SDC, reply KindAck
	KindSURequest
	KindSUResponse
	KindEColumnRequest // PU -> SDC public data fetch
	KindEColumn
	KindVerifyKeyRequest // SU -> SDC verification key fetch
	KindVerifyKey

	KindConvertRequest // SDC -> STP
	KindConvertResponse
	KindSUKeyRequest // SDC (or anyone) -> STP
	KindSUKey
	KindGroupKeyRequest // anyone -> STP
	KindGroupKey
	KindRegisterSU // SU -> STP, reply KindAck

	// Two retired slots (the co-STP partial-decryption kinds). A
	// retired kind stays blank so that every kind after it keeps its
	// number: a number names one message in every build, so a frame from
	// a build that encodes that message differently fails to decode
	// instead of being read as another kind. Builds do not interoperate:
	// every role upgrades together.
	_
	_

	KindAck

	// Two more retired slots (the coalesced sign-test kinds).
	_
	_

	// PIR kinds (appended for the same numbering reason): the
	// multi-server spectrum-query backend. An SU fans one
	// KindPIRQuery out to each of k replicas. The blank after them is
	// the retired replica-sync kind, which carried plaintext PU churn.
	KindPIRMetaRequest // SU -> replica, database geometry fetch
	KindPIRMeta
	KindPIRQuery // SU -> replica, one selection-vector share
	KindPIRAnswer
	_

	// Shard kinds (appended): the channel-sharded SDC. A router fans
	// one KindShardQuery (carrying the SU request, usually
	// channel-sliced) out to each shard and masks the license with the
	// grant indicators of the KindShardAnswer replies.
	KindShardQuery // router -> shard, reply KindShardAnswer
	KindShardAnswer
)

// String names the kind for logs.
func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindPUUpdate:
		return "pu-update"
	case KindSURequest:
		return "su-request"
	case KindSUResponse:
		return "su-response"
	case KindEColumnRequest:
		return "e-column-request"
	case KindEColumn:
		return "e-column"
	case KindVerifyKeyRequest:
		return "verify-key-request"
	case KindVerifyKey:
		return "verify-key"
	case KindConvertRequest:
		return "convert-request"
	case KindConvertResponse:
		return "convert-response"
	case KindSUKeyRequest:
		return "su-key-request"
	case KindSUKey:
		return "su-key"
	case KindGroupKeyRequest:
		return "group-key-request"
	case KindGroupKey:
		return "group-key"
	case KindRegisterSU:
		return "register-su"
	case KindAck:
		return "ack"
	case KindPIRMetaRequest:
		return "pir-meta-request"
	case KindPIRMeta:
		return "pir-meta"
	case KindPIRQuery:
		return "pir-query"
	case KindPIRAnswer:
		return "pir-answer"
	case KindShardQuery:
		return "shard-query"
	case KindShardAnswer:
		return "shard-answer"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Envelope is the single message type on the wire; the Kind says
// which payload fields are meaningful.
type Envelope struct {
	Kind Kind

	// Err carries the error text for KindError replies.
	Err string

	// SUID / Block parameterise lookups and registrations.
	SUID  string
	Block int

	PUUpdate     *pisa.PUUpdate
	Request      *pisa.TransmissionRequest
	Response     *pisa.Response
	SignRequest  *pisa.SignRequest
	SignResponse *pisa.SignResponse

	EColumn   []int64
	Paillier  *paillier.PublicKey
	VerifyKey *rsa.PublicKey

	// PIR fields carry the multi-server spectrum-query backend's
	// frames (KindPIRMeta/Query/Answer).
	PIRMeta   *pir.Meta
	PIRQuery  *pir.Query
	PIRAnswer *pir.Answer

	// ShardAnswer carries one shard's partial encrypted sum
	// (KindShardAnswer); the matching KindShardQuery reuses Request.
	ShardAnswer *pisa.ShardAnswer
}

// RemoteError is an error reported by the peer (as opposed to a
// transport failure).
type RemoteError struct {
	// Msg is the peer-provided error text.
	Msg string
	// Addr names the peer that reported the error, so failures in a
	// k-way replica fan-out are attributable. Empty when unknown.
	Addr string
}

// Error implements error.
func (e *RemoteError) Error() string {
	if e.Addr != "" {
		return "remote " + e.Addr + ": " + e.Msg
	}
	return "remote: " + e.Msg
}

// ErrMalformed marks an envelope that arrived whole but does not
// decode. Gob length-prefixes every message and its decoder drops what
// is left of a failed one, so the stream stays in step: a server answers
// the peer with the error and reads its next envelope.
var ErrMalformed = errors.New("wire: malformed envelope")

// Conn wraps a net.Conn with gob framing and per-operation deadlines.
// It is not safe for concurrent use; callers serialise access.
type Conn struct {
	conn    net.Conn
	in      *reader
	enc     *gob.Encoder
	dec     *gob.Decoder
	timeout time.Duration

	// dead flips when a context cancellation force-closed the socket
	// mid-operation; the connection must not be reused after that (the
	// gob stream is unsynchronised).
	dead atomic.Bool
}

// NewConn wraps an established connection. timeout bounds each
// individual send or receive; zero disables deadlines.
func NewConn(conn net.Conn, timeout time.Duration) *Conn {
	in := &reader{r: conn}
	return &Conn{
		conn:    conn,
		in:      in,
		enc:     gob.NewEncoder(conn),
		dec:     gob.NewDecoder(in),
		timeout: timeout,
	}
}

// reader passes the connection's reads through and remembers whether
// one failed, which tells a transport fault from a malformed envelope.
type reader struct {
	r      io.Reader
	failed bool
}

func (r *reader) Read(p []byte) (int, error) {
	n, err := r.r.Read(p)
	if err != nil {
		r.failed = true
	}
	return n, err
}

// deadline picks the sooner of the context deadline and the
// connection's default per-operation timeout. A zero time disables
// the deadline.
func (c *Conn) deadline(ctx context.Context) time.Time {
	var d time.Time
	if c.timeout > 0 {
		d = time.Now().Add(c.timeout)
	}
	if ctxd, ok := ctx.Deadline(); ok && (d.IsZero() || ctxd.Before(d)) {
		d = ctxd
	}
	return d
}

// Send writes one envelope.
func (c *Conn) Send(env *Envelope) error {
	return c.sendContext(context.Background(), env)
}

// sendContext writes one envelope, bounding the write by the sooner
// of the context deadline and the connection timeout.
func (c *Conn) sendContext(ctx context.Context, env *Envelope) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("wire: send %s: %w", env.Kind, err)
	}
	if err := c.conn.SetWriteDeadline(c.deadline(ctx)); err != nil {
		return fmt.Errorf("wire: set write deadline: %w", err)
	}
	if err := c.enc.Encode(env); err != nil {
		return fmt.Errorf("wire: send %s: %w", env.Kind, c.ctxErr(ctx, err))
	}
	return nil
}

// Recv reads one envelope. One that arrives whole but does not decode
// is an ErrMalformed error, and the next Recv reads the envelope after
// it; after any other error the connection is done.
func (c *Conn) Recv() (*Envelope, error) {
	return c.recvContext(context.Background())
}

// recvContext reads one envelope, bounding the read by the sooner of
// the context deadline and the connection timeout.
func (c *Conn) recvContext(ctx context.Context) (*Envelope, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("wire: recv: %w", err)
	}
	if err := c.conn.SetReadDeadline(c.deadline(ctx)); err != nil {
		return nil, fmt.Errorf("wire: set read deadline: %w", err)
	}
	var env Envelope
	if err := c.dec.Decode(&env); err != nil {
		if !c.in.failed {
			return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
		}
		return nil, fmt.Errorf("wire: recv: %w", c.ctxErr(ctx, err))
	}
	return &env, nil
}

// CallContext sends a request and waits for the matching reply kind
// under the context; a KindError reply surfaces as *RemoteError. The
// context deadline bounds each send and receive (capped by the
// connection timeout), and cancellation force-closes the socket so an
// in-flight exchange unblocks immediately instead of waiting out its
// deadline. After a cancellation the connection is Dead and must be
// discarded.
func (c *Conn) CallContext(ctx context.Context, req *Envelope, want Kind) (*Envelope, error) {
	stop := c.watchCancel(ctx)
	defer stop()
	if err := c.sendContext(ctx, req); err != nil {
		return nil, err
	}
	resp, err := c.recvContext(ctx)
	if err != nil {
		return nil, err
	}
	if resp.Kind == KindError {
		return nil, &RemoteError{Msg: resp.Err, Addr: c.RemoteAddr()}
	}
	if resp.Kind != want {
		return nil, fmt.Errorf("wire: %s sent %s, want %s", c.RemoteAddr(), resp.Kind, want)
	}
	return resp, nil
}

// RemoteAddr names the peer, for error attribution; empty when the
// underlying transport has no address.
func (c *Conn) RemoteAddr() string {
	if addr := c.conn.RemoteAddr(); addr != nil {
		return addr.String()
	}
	return ""
}

// ctxErr attributes an I/O failure to the context when the context is
// the reason the socket died (cancellation or deadline).
func (c *Conn) ctxErr(ctx context.Context, err error) error {
	if ctxErr := ctx.Err(); ctxErr != nil {
		return fmt.Errorf("%w (%v)", ctxErr, err)
	}
	// A socket timeout set from the context deadline can fire a beat
	// before the context's own timer; attribute it all the same.
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
			return fmt.Errorf("%w (%v)", context.DeadlineExceeded, err)
		}
	}
	return err
}

// watchCancel closes the connection if the context is cancelled
// before the returned stop function runs, so a cancelled caller never
// stays blocked in a read or write.
//
// stop blocks until the watcher goroutine has exited. Without the
// wait, a caller that cancels its context right after a successful
// call (the usual `defer cancel()` of a per-attempt timeout) races
// the watcher: by the time the goroutine wakes, both channels are
// ready and select picks one at random, so ~half the time it closes
// a perfectly healthy connection that the pool may already have
// handed to the next call — which then dies mid-exchange with "use
// of closed network connection". Because stop runs before the caller
// cancels, waiting here guarantees the watcher saw only finished.
func (c *Conn) watchCancel(ctx context.Context) (stop func()) {
	if ctx.Done() == nil {
		return func() {}
	}
	finished := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		select {
		case <-ctx.Done():
			c.dead.Store(true)
			c.conn.Close()
		case <-finished:
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(finished) })
		<-exited
	}
}

// Dead reports whether a cancellation closed the connection mid-call.
// A dead connection's gob stream is unsynchronised; it must not be
// pooled or reused.
func (c *Conn) Dead() bool { return c.dead.Load() }

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.conn.Close() }

// SendError reports a handler failure to the peer.
func (c *Conn) SendError(err error) error {
	return c.Send(&Envelope{Kind: KindError, Err: err.Error()})
}

// IsClosed reports whether err indicates a connection that went away
// normally (EOF or closed socket), as opposed to a protocol error.
func IsClosed(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, net.ErrClosed) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return false
	}
	s := err.Error()
	return strings.Contains(s, "EOF") || strings.Contains(s, "connection reset")
}
