package wire

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/gob"
	"errors"
	"fmt"
	"math/big"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pisa/internal/geo"
	"pisa/internal/matrix"
	"pisa/internal/paillier"
	"pisa/internal/pir"
	"pisa/internal/pisa"
)

// pipePair returns two framed connections joined by an in-memory pipe.
func pipePair(t *testing.T) (*Conn, *Conn) {
	t.Helper()
	a, b := net.Pipe()
	ca := NewConn(a, 2*time.Second)
	cb := NewConn(b, 2*time.Second)
	t.Cleanup(func() {
		ca.Close()
		cb.Close()
	})
	return ca, cb
}

func TestSendRecvRoundTrip(t *testing.T) {
	a, b := pipePair(t)
	done := make(chan error, 1)
	go func() {
		done <- a.Send(&Envelope{Kind: KindEColumnRequest, Block: 17})
	}()
	env, err := b.Recv()
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Send: %v", err)
	}
	if env.Kind != KindEColumnRequest || env.Block != 17 {
		t.Fatalf("got %+v", env)
	}
}

func TestEnvelopeCarriesCiphertexts(t *testing.T) {
	sk, err := paillier.GenerateKey(rand.Reader, 256)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := sk.PublicKey.EncryptInt(rand.Reader, -321)
	if err != nil {
		t.Fatal(err)
	}
	a, b := pipePair(t)
	go func() {
		_ = a.Send(&Envelope{
			Kind:     KindGroupKey,
			Paillier: sk.Public(),
		})
	}()
	env, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if env.Paillier == nil || !env.Paillier.SameKey(sk.Public()) {
		t.Fatal("public key (modulus and nonce base) mangled in transit")
	}
	// The deserialised key must be usable for ciphertext operations,
	// and what it encrypts must carry a nonce the owner decrypts on the
	// short exponent.
	sum, err := env.Paillier.Add(ct, ct)
	if err != nil {
		t.Fatalf("Add with wire key: %v", err)
	}
	fresh, err := env.Paillier.EncryptInt(rand.Reader, 5)
	if err != nil {
		t.Fatalf("Encrypt with wire key: %v", err)
	}
	_, full := paillier.Decrypts()
	if v, err := sk.DecryptInt(fresh); err != nil || v != 5 {
		t.Fatalf("wire-key ciphertext decrypted to %d, %v", v, err)
	}
	if _, after := paillier.Decrypts(); after != full {
		t.Fatal("a ciphertext made under the key that crossed the wire needed the full exponent")
	}
	v, err := sk.DecryptInt(sum)
	if err != nil {
		t.Fatal(err)
	}
	if v != -642 {
		t.Fatalf("got %d, want -642", v)
	}
}

func TestEnvelopeCarriesPIRFrames(t *testing.T) {
	a, b := pipePair(t)
	go func() {
		_ = a.Send(&Envelope{
			Kind:     KindPIRQuery,
			PIRQuery: &pir.Query{Sel: []byte{0xA5, 0x01}},
		})
		_ = a.Send(&Envelope{
			Kind:      KindPIRAnswer,
			PIRAnswer: &pir.Answer{Version: 3, Row: []byte{0x0F}},
		})
	}()
	q, err := b.Recv()
	if err != nil || q.PIRQuery == nil || !bytes.Equal(q.PIRQuery.Sel, []byte{0xA5, 0x01}) {
		t.Fatalf("query frame mangled: %+v, %v", q, err)
	}
	ans, err := b.Recv()
	if err != nil || ans.PIRAnswer == nil || ans.PIRAnswer.Version != 3 || !bytes.Equal(ans.PIRAnswer.Row, []byte{0x0F}) {
		t.Fatalf("answer frame mangled: %+v, %v", ans, err)
	}
}

func TestCallMatchesKinds(t *testing.T) {
	a, b := pipePair(t)
	go func() {
		env, err := b.Recv()
		if err != nil {
			return
		}
		if env.Kind == KindGroupKeyRequest {
			_ = b.Send(&Envelope{Kind: KindGroupKey})
		}
	}()
	resp, err := a.CallContext(context.Background(), &Envelope{Kind: KindGroupKeyRequest}, KindGroupKey)
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if resp.Kind != KindGroupKey {
		t.Fatalf("kind = %s", resp.Kind)
	}
}

func TestCallSurfacesRemoteError(t *testing.T) {
	a, b := pipePair(t)
	go func() {
		if _, err := b.Recv(); err != nil {
			return
		}
		_ = b.SendError(errors.New("budget exceeded"))
	}()
	_, err := a.CallContext(context.Background(), &Envelope{Kind: KindSURequest}, KindSUResponse)
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("got %v, want RemoteError", err)
	}
	if remote.Msg != "budget exceeded" {
		t.Fatalf("msg = %q", remote.Msg)
	}
	// The error names the peer so k-way fan-out failures are
	// attributable (net.Pipe's address is the literal "pipe").
	if remote.Addr != a.RemoteAddr() || remote.Addr == "" {
		t.Fatalf("remote error addr = %q, conn says %q", remote.Addr, a.RemoteAddr())
	}
	if want := "remote " + remote.Addr + ": budget exceeded"; err.Error() != want {
		t.Fatalf("error text %q, want %q", err.Error(), want)
	}
}

func TestRemoteErrorWithoutAddr(t *testing.T) {
	err := &RemoteError{Msg: "boom"}
	if err.Error() != "remote: boom" {
		t.Fatalf("addrless remote error = %q", err.Error())
	}
}

func TestCallRejectsWrongKind(t *testing.T) {
	a, b := pipePair(t)
	go func() {
		if _, err := b.Recv(); err != nil {
			return
		}
		_ = b.Send(&Envelope{Kind: KindAck})
	}()
	if _, err := a.CallContext(context.Background(), &Envelope{Kind: KindSURequest}, KindSUResponse); err == nil {
		t.Fatal("mismatched reply kind accepted")
	}
}

func TestCallKindMismatchNamesPeer(t *testing.T) {
	a, b := pipePair(t)
	go func() {
		if _, err := b.Recv(); err != nil {
			return
		}
		_ = b.Send(&Envelope{Kind: KindAck})
	}()
	_, err := a.CallContext(context.Background(), &Envelope{Kind: KindSURequest}, KindSUResponse)
	if err == nil {
		t.Fatal("mismatched reply kind accepted")
	}
	if !strings.Contains(err.Error(), a.RemoteAddr()) {
		t.Fatalf("kind-mismatch error %q does not name peer %q", err, a.RemoteAddr())
	}
}

func TestRecvTimesOut(t *testing.T) {
	a, conn := net.Pipe()
	defer a.Close()
	c := NewConn(conn, 50*time.Millisecond)
	defer c.Close()
	start := time.Now()
	_, err := c.Recv()
	if err == nil {
		t.Fatal("Recv succeeded with no sender")
	}
	if time.Since(start) > time.Second {
		t.Fatal("deadline not applied")
	}
}

// TestKindStrings pins every live kind's number and name, and checks
// that the retired numbers stay blank: a kind keeps its number in every
// build.
func TestKindStrings(t *testing.T) {
	live := []struct {
		kind Kind
		num  uint8
		name string
	}{
		{KindError, 1, "error"},
		{KindPUUpdate, 2, "pu-update"},
		{KindSURequest, 3, "su-request"},
		{KindSUResponse, 4, "su-response"},
		{KindEColumnRequest, 5, "e-column-request"},
		{KindEColumn, 6, "e-column"},
		{KindVerifyKeyRequest, 7, "verify-key-request"},
		{KindVerifyKey, 8, "verify-key"},
		{KindConvertRequest, 9, "convert-request"},
		{KindConvertResponse, 10, "convert-response"},
		{KindSUKeyRequest, 11, "su-key-request"},
		{KindSUKey, 12, "su-key"},
		{KindGroupKeyRequest, 13, "group-key-request"},
		{KindGroupKey, 14, "group-key"},
		{KindRegisterSU, 15, "register-su"},
		{KindAck, 18, "ack"},
		{KindPIRMetaRequest, 21, "pir-meta-request"},
		{KindPIRMeta, 22, "pir-meta"},
		{KindPIRQuery, 23, "pir-query"},
		{KindPIRAnswer, 24, "pir-answer"},
		{KindShardQuery, 26, "shard-query"},
		{KindShardAnswer, 27, "shard-answer"},
	}
	for _, c := range live {
		if uint8(c.kind) != c.num || c.kind.String() != c.name {
			t.Errorf("kind %q is %d named %q, want %d named %q", c.name, uint8(c.kind), c.kind.String(), c.num, c.name)
		}
	}
	for _, n := range []uint8{0, 16, 17, 19, 20, 25, 28, 200} {
		if got, want := Kind(n).String(), fmt.Sprintf("kind(%d)", n); got != want {
			t.Errorf("Kind(%d) is named %q, want %q", n, got, want)
		}
	}
}

func TestIsClosed(t *testing.T) {
	if IsClosed(nil) {
		t.Error("nil is closed")
	}
	if !IsClosed(errors.New("read: EOF")) {
		t.Error("EOF not recognised")
	}
	if !IsClosed(net.ErrClosed) {
		t.Error("net.ErrClosed not recognised")
	}
	if IsClosed(errors.New("some protocol error")) {
		t.Error("protocol error misreported as closed")
	}
}

func TestCallContextCancelClosesConn(t *testing.T) {
	a, b := pipePair(t)
	go func() {
		_, _ = b.Recv() // swallow the request, never reply
	}()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := a.CallContext(ctx, &Envelope{Kind: KindGroupKeyRequest}, KindGroupKey)
	if err == nil {
		t.Fatal("cancelled call succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not attribute the cancellation", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("cancellation did not interrupt the in-flight call")
	}
	if !a.Dead() {
		t.Fatal("cancel-closed conn not marked dead (unsafe to reuse)")
	}
}

// scriptedConn is a net.Conn whose reads serve a pre-encoded reply
// and whose writes always succeed, both without ever blocking — so a
// CallContext over it completes without a single scheduling point.
// That starves the cancellation watcher of CPU until after the call
// returns, which is exactly the interleaving the stop barrier must
// survive.
type scriptedConn struct {
	replies bytes.Buffer
	closed  atomic.Bool
}

func (c *scriptedConn) Read(p []byte) (int, error) {
	if c.closed.Load() {
		return 0, net.ErrClosed
	}
	return c.replies.Read(p)
}

func (c *scriptedConn) Write(p []byte) (int, error) {
	if c.closed.Load() {
		return 0, net.ErrClosed
	}
	return len(p), nil
}

func (c *scriptedConn) Close() error                     { c.closed.Store(true); return nil }
func (c *scriptedConn) LocalAddr() net.Addr              { return nil }
func (c *scriptedConn) RemoteAddr() net.Addr             { return nil }
func (c *scriptedConn) SetDeadline(time.Time) error      { return nil }
func (c *scriptedConn) SetReadDeadline(time.Time) error  { return nil }
func (c *scriptedConn) SetWriteDeadline(time.Time) error { return nil }

// TestCancelAfterCallDoesNotKillConn pins the watchCancel stop
// barrier: cancelling the per-call context immediately after a
// successful CallContext (the standard `defer cancel()` of an
// attempt timeout) must never close the connection, which a pool may
// already have handed to the next caller.
//
// GOMAXPROCS(1) plus the non-blocking scriptedConn keep the watcher
// goroutine unscheduled for the whole call, so without the barrier
// it reaches its select only after both finished and ctx.Done are
// ready — a ready-ready select picks uniformly at random and closes
// the healthy connection about half the time (observed in the field
// as sporadic "use of closed network connection" on pooled RPC
// conns). With the barrier, stop returns only after the watcher has
// committed to the finished branch, so no iteration may fail.
func TestCancelAfterCallDoesNotKillConn(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < 100; i++ {
		sc := &scriptedConn{}
		if err := gob.NewEncoder(&sc.replies).Encode(&Envelope{Kind: KindAck}); err != nil {
			t.Fatal(err)
		}
		c := NewConn(sc, 2*time.Second)
		ctx, cancel := context.WithCancel(context.Background())
		_, err := c.CallContext(ctx, &Envelope{Kind: KindRegisterSU}, KindAck)
		cancel() // fires after stop(); must not race a conn close
		if err != nil {
			t.Fatalf("iteration %d: scripted call failed: %v", i, err)
		}
		runtime.Gosched() // give a stale watcher, if any survived, the CPU
		if c.Dead() || sc.closed.Load() {
			t.Fatalf("iteration %d: cancel after a successful call killed the conn", i)
		}
	}
}

func TestContextDeadlineBeatsConnTimeout(t *testing.T) {
	a, conn := net.Pipe()
	defer a.Close()
	// Generous per-conn default; the context's own deadline must win.
	c := NewConn(conn, time.Minute)
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.recvContext(ctx)
	if err == nil {
		t.Fatal("Recv succeeded with no sender")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not attribute the deadline", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("context deadline not applied over the conn default")
	}
}

// suRequestFrame encodes a KindSURequest envelope as an SU sends one: a
// slot-packed encrypted F over a 2-channel, 4-block grid, two blocks per
// ciphertext, with the whole grid disclosed.
func suRequestFrame(f *testing.F) []byte {
	f.Helper()
	sk, err := paillier.GenerateKey(rand.Reader, 256)
	if err != nil {
		f.Fatal(err)
	}
	codec, err := paillier.NewSlotCodec(2, 40, 20)
	if err != nil {
		f.Fatal(err)
	}
	fp, err := matrix.NewPacked(sk.Public(), codec, 2, 4)
	if err != nil {
		f.Fatal(err)
	}
	for c := 0; c < 2; c++ {
		for g := 0; g < 2; g++ {
			ct, err := sk.Public().PackEncrypt(rand.Reader, codec, []*big.Int{big.NewInt(int64(c)), big.NewInt(int64(-g))})
			if err != nil {
				f.Fatal(err)
			}
			if err := fp.SetGroup(c, g, ct); err != nil {
				f.Fatal(err)
			}
		}
	}
	req := &pisa.TransmissionRequest{SUID: "su-1", FP: fp, Disclosure: []geo.BlockID{0, 1, 2, 3}}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&Envelope{Kind: KindSURequest, Request: req}); err != nil {
		f.Fatal(err)
	}
	var env Envelope
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&env); err != nil || env.Request == nil || env.Request.Ciphertexts() != 4 {
		f.Fatalf("the SU request frame does not decode to its request: %v", err)
	}
	return buf.Bytes()
}

// hostilePacked stands in for matrix.Packed on the sending side: it
// gob-encodes the fields of Packed's own wire form with whatever slot
// geometry a hostile SU declares.
type hostilePacked struct {
	Channels, Blocks             int
	Slots, SlotBits, PayloadBits int
	KeyN                         *big.Int
}

func (h hostilePacked) GobEncode() ([]byte, error) {
	type plain hostilePacked
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(plain(h))
	return buf.Bytes(), err
}

// encodeHostileSURequest encodes a KindSURequest envelope whose F matrix
// declares a slot width of 2^62 bits: slots*slotBits overflows an int.
func encodeHostileSURequest(enc *gob.Encoder) error {
	type request struct {
		SUID string
		FP   hostilePacked
	}
	type envelope struct {
		Kind    Kind
		Request *request
	}
	return enc.Encode(&envelope{Kind: KindSURequest, Request: &request{
		SUID: "su-1",
		FP:   hostilePacked{Channels: 1, Blocks: 2, Slots: 2, SlotBits: 1 << 62, PayloadBits: 1, KeyN: big.NewInt(1<<61 - 1)},
	}})
}

// TestRecvRefusesHostileSlotWidth: a request whose F matrix declares an
// overflowing slot geometry is an error out of Recv, not a panic, and
// the stream stays in step: the next envelope on it decodes.
func TestRecvRefusesHostileSlotWidth(t *testing.T) {
	a, b := net.Pipe()
	c := NewConn(b, 2*time.Second)
	t.Cleanup(func() {
		a.Close()
		c.Close()
	})
	sent := make(chan error, 1)
	go func() {
		enc := gob.NewEncoder(a)
		if err := encodeHostileSURequest(enc); err != nil {
			sent <- err
			return
		}
		sent <- enc.Encode(&Envelope{Kind: KindAck})
	}()
	_, err := c.Recv()
	if !errors.Is(err, ErrMalformed) || !strings.Contains(err.Error(), "slot width") {
		t.Fatalf("hostile slot width: err = %v, want a malformed-message error naming the slot width", err)
	}
	env, err := c.Recv()
	if err != nil || env.Kind != KindAck {
		t.Fatalf("envelope after the hostile one: %+v, %v", env, err)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
}

func FuzzEnvelopeDecode(f *testing.F) {
	// Seed with real encoded envelopes plus junk.
	var buf bytes.Buffer
	_ = gob.NewEncoder(&buf).Encode(&Envelope{Kind: KindAck, SUID: "su"})
	f.Add(buf.Bytes())
	f.Add([]byte("not gob at all"))
	f.Add([]byte{})
	f.Add(suRequestFrame(f))
	var hostile bytes.Buffer
	if err := encodeHostileSURequest(gob.NewEncoder(&hostile)); err != nil {
		f.Fatal(err)
	}
	f.Add(hostile.Bytes())
	f.Fuzz(func(t *testing.T, raw []byte) {
		// Malformed frames must produce errors, never panics.
		var env Envelope
		_ = gob.NewDecoder(bytes.NewReader(raw)).Decode(&env)
	})
}
