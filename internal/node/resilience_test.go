package node

import (
	"crypto/rand"
	"crypto/rsa"
	"errors"
	"fmt"
	"math/big"
	mrand "math/rand"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pisa/internal/geo"
	"pisa/internal/pisa"
	"pisa/internal/watch"
	"pisa/internal/wire"
)

// fastRetry keeps test retry loops snappy.
func fastRetry(attempts int) RetryPolicy {
	return RetryPolicy{MaxAttempts: attempts, BaseDelay: 2 * time.Millisecond, MaxDelay: 20 * time.Millisecond}
}

// TestDialSTPClosesConnOnRemoteError is the leak regression test: a
// remote error during the constructor's group-key fetch keeps the
// connection healthy (remote errors never drop conns), so the failed
// constructor itself must close it rather than leak it. Against the
// pre-fix code the server side keeps a silent open socket and this
// test times out waiting for EOF.
func TestDialSTPClosesConnOnRemoteError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	result := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			result <- err
			return
		}
		defer conn.Close()
		wc := wire.NewConn(conn, 5*time.Second)
		if _, err := wc.Recv(); err != nil {
			result <- fmt.Errorf("recv request: %w", err)
			return
		}
		if err := wc.SendError(errors.New("no group key for you")); err != nil {
			result <- err
			return
		}
		// The fixed constructor closes its socket; the read must
		// unblock with EOF well before the deadline.
		if err := conn.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
			result <- err
			return
		}
		buf := make([]byte, 1)
		_, err = conn.Read(buf)
		if err == nil {
			result <- errors.New("client sent more data after a failed constructor")
			return
		}
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			result <- errors.New("DialSTP leaked its connection: still open 2s after the remote error")
			return
		}
		result <- nil
	}()

	_, err = DialSTP(ln.Addr().String(), 5*time.Second)
	if err == nil {
		t.Fatal("DialSTP succeeded against an erroring server")
	}
	var remote *wire.RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("constructor error %v, want wrapped RemoteError", err)
	}
	if err := <-result; err != nil {
		t.Fatal(err)
	}
}

// TestDialTimeoutSeparateFromCallBudget pins the dial-budget bugfix:
// the dialer must be handed DialTimeout, not the (much larger)
// per-call CallTimeout, and a hung dial must fail within the dial
// budget instead of eating the whole call's.
func TestDialTimeoutSeparateFromCallBudget(t *testing.T) {
	const dialTO = 50 * time.Millisecond
	cli := DialSDCWith(Options{
		DialTimeout: dialTO,
		CallTimeout: 10 * time.Second,
		Retry:       fastRetry(1),
	}, "203.0.113.1:9")
	defer cli.Close()
	var gotTimeout time.Duration
	cli.client.dial = func(addr string, timeout time.Duration) (net.Conn, error) {
		gotTimeout = timeout
		// A hung dial: sleeps its whole budget, then gives up — the
		// contract net.DialTimeout implements.
		time.Sleep(timeout)
		return nil, fmt.Errorf("dial %s: timed out", addr)
	}
	start := time.Now()
	_, err := cli.EColumn(0)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("call succeeded through a dead dialer")
	}
	if gotTimeout != dialTO {
		t.Errorf("dialer given %v, want the dial timeout %v (not the call budget)", gotTimeout, dialTO)
	}
	if elapsed > 2*time.Second {
		t.Errorf("hung dial burned %v of the call budget; want failure within the %v dial budget", elapsed, dialTO)
	}
}

// TestHangingServerBoundedByCallTimeout covers the other half of the
// timeout split: a server that accepts and then goes silent must cost
// one CallTimeout, not the dial timeout and not forever.
func TestHangingServerBoundedByCallTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // hold it open, answer nothing
		}
	}()
	cli := DialSDCWith(Options{
		DialTimeout: 5 * time.Second,
		CallTimeout: 300 * time.Millisecond,
		Retry:       fastRetry(1),
	}, ln.Addr().String())
	defer cli.Close()
	start := time.Now()
	_, err = cli.VerifyKey()
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("call succeeded against a silent server")
	}
	if elapsed < 200*time.Millisecond || elapsed > 3*time.Second {
		t.Errorf("silent server cost %v, want ~the 300ms call timeout", elapsed)
	}
}

// TestTransportFaultNeverDeliversStaleReply asserts the framing
// invariant: after any non-remote failure (here a deadline expiry)
// the connection is dropped, so a late reply still in flight on the
// old socket can never be delivered to the next caller.
func TestTransportFaultNeverDeliversStaleReply(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var mu sync.Mutex
	conns, delayed := 0, false
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns++
			mu.Unlock()
			go func() {
				defer conn.Close()
				wc := wire.NewConn(conn, time.Minute)
				for {
					env, err := wc.Recv()
					if err != nil {
						return
					}
					mu.Lock()
					slow := !delayed
					delayed = true
					mu.Unlock()
					if slow {
						// Answer the first request late: the reply
						// becomes stale the moment the client's
						// deadline fires.
						time.Sleep(400 * time.Millisecond)
					}
					var reply *wire.Envelope
					switch env.Kind {
					case wire.KindEColumnRequest:
						reply = &wire.Envelope{Kind: wire.KindEColumn, EColumn: []int64{42}}
					case wire.KindVerifyKeyRequest:
						reply = &wire.Envelope{Kind: wire.KindVerifyKey, VerifyKey: &rsa.PublicKey{N: big.NewInt(3233), E: 17}}
					default:
						reply = &wire.Envelope{Kind: wire.KindAck}
					}
					if err := wc.Send(reply); err != nil {
						return
					}
				}
			}()
		}
	}()

	cli := DialSDCWith(Options{
		CallTimeout: 150 * time.Millisecond,
		Retry:       fastRetry(1),
	}, ln.Addr().String())
	defer cli.Close()

	if _, err := cli.EColumn(7); err == nil {
		t.Fatal("delayed first call succeeded; fixture broken")
	}
	// On a reused (desynchronised) connection this second call would
	// read the stale e-column reply and fail with a kind mismatch.
	vk, err := cli.VerifyKey()
	if err != nil {
		t.Fatalf("call after transport fault: %v (stale reply delivered?)", err)
	}
	if vk.E != 17 {
		t.Fatalf("wrong verify key %+v", vk)
	}
	mu.Lock()
	defer mu.Unlock()
	if conns < 2 {
		t.Fatalf("client reused the faulted connection (%d conns seen, want >= 2)", conns)
	}
}

// TestRetryBudgetExhausted drives an idempotent call against a server
// that kills every connection and checks the budget accounting.
func TestRetryBudgetExhausted(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conn.Close()
		}
	}()
	cli := DialSDCWith(Options{CallTimeout: time.Second, Retry: fastRetry(3)}, ln.Addr().String())
	defer cli.Close()
	_, err = cli.EColumn(0)
	if err == nil {
		t.Fatal("call succeeded against a connection-killing server")
	}
	if !strings.Contains(err.Error(), "retry budget exhausted") {
		t.Errorf("error %q does not name the exhausted budget", err)
	}
	stats := cli.Stats()
	if stats.Retries != 2 {
		t.Errorf("retries = %d, want 2 (3 attempts)", stats.Retries)
	}
	if stats.TransportFaults < 3 {
		t.Errorf("transport faults = %d, want >= 3", stats.TransportFaults)
	}
	if stats.RemoteErrors != 0 {
		t.Errorf("remote errors = %d, want 0", stats.RemoteErrors)
	}
}

// TestNonIdempotentCallsDoNotRetryTransportFaults: a PU update that
// died mid-exchange may have been applied; re-sending it could
// double-apply, so only dial failures (provably never sent) retry.
func TestNonIdempotentCallsDoNotRetryTransportFaults(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var mu sync.Mutex
	requests := 0
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				wc := wire.NewConn(conn, time.Minute)
				for {
					if _, err := wc.Recv(); err != nil {
						return
					}
					mu.Lock()
					requests++
					mu.Unlock()
					return // received, then die mid-call: ambiguous outcome
				}
			}()
		}
	}()
	cli := DialSDCWith(Options{CallTimeout: time.Second, Retry: fastRetry(5)}, ln.Addr().String())
	defer cli.Close()
	if err := cli.SendUpdate(&pisa.PUUpdate{}); err == nil {
		t.Fatal("update succeeded against a dying server")
	}
	mu.Lock()
	defer mu.Unlock()
	if requests != 1 {
		t.Fatalf("non-idempotent update sent %d times, want exactly 1", requests)
	}
}

// TestFailoverToSecondSTP kills the preferred of two equivalent STP
// servers and requires the client to keep answering through the
// second, with the rotation visible in the stats.
func TestFailoverToSecondSTP(t *testing.T) {
	params := pisa.TestParams(testWatchParams(t))
	stp, err := pisa.NewSTP(rand.Reader, params.PaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	var addrs []string
	var servers []*STPServer
	for i := 0; i < 2; i++ {
		srv := NewSTPServer(stp, nil, 10*time.Second)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = srv.Serve(ln) }()
		t.Cleanup(func() { srv.Close() })
		addrs = append(addrs, ln.Addr().String())
		servers = append(servers, srv)
	}
	cli, err := DialSTPWith(Options{
		CallTimeout: 5 * time.Second,
		Retry:       fastRetry(5),
		Breaker:     BreakerConfig{FailureThreshold: 1, Cooldown: time.Minute},
	}, addrs...)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	isRemote := func(err error) bool {
		var remote *wire.RemoteError
		return errors.As(err, &remote)
	}
	// Healthy baseline: an unknown-SU lookup answers remotely.
	if err := func() error { _, err := cli.SUKey("ghost"); return err }(); !isRemote(err) {
		t.Fatalf("baseline lookup: %v, want RemoteError", err)
	}

	servers[0].Close()

	// The preferred endpoint is dead; the call must still get an
	// authoritative (remote) answer via the second STP.
	start := time.Now()
	if err := func() error { _, err := cli.SUKey("ghost"); return err }(); !isRemote(err) {
		t.Fatalf("post-kill lookup: %v, want RemoteError via failover", err)
	}
	t.Logf("first call after kill answered in %v (retry + failover latency)", time.Since(start))
	stats := cli.Stats()
	if stats.Failovers < 1 {
		t.Errorf("failovers = %d, want >= 1", stats.Failovers)
	}
	if stats.BreakerOpens < 1 {
		t.Errorf("breaker opens = %d, want >= 1", stats.BreakerOpens)
	}
	if stats.Endpoints[0].BreakerState != "open" {
		t.Errorf("dead endpoint breaker %q, want open", stats.Endpoints[0].BreakerState)
	}
	// Registration broadcast tolerates the dead replica: at least one
	// healthy endpoint suffices.
	su, err := pisa.NewSU(rand.Reader, "su-fo", 3, params, mustPlanner(t, params.Watch), cli.GroupKey())
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.RegisterSU(su.ID(), su.PublicKey()); err != nil {
		t.Fatalf("RegisterSU with one dead replica: %v", err)
	}
	if _, err := cli.SUKey(su.ID()); err != nil {
		t.Fatalf("SUKey after degraded registration: %v", err)
	}
}

func mustPlanner(t *testing.T, wp watch.Params) *watch.Planner {
	t.Helper()
	p, err := watch.NewPlanner(wp)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestBreakerOpensAndRecovers walks the breaker through
// closed → open → half-open probe → closed against a restarting
// server.
func TestBreakerOpensAndRecovers(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // server starts dead

	cli := DialSDCWith(Options{
		CallTimeout: time.Second,
		Retry:       fastRetry(1),
		Breaker:     BreakerConfig{FailureThreshold: 2, Cooldown: 100 * time.Millisecond},
	}, addr)
	defer cli.Close()

	for i := 0; i < 2; i++ {
		if _, err := cli.EColumn(0); err == nil {
			t.Fatal("call succeeded against a dead server")
		}
	}
	stats := cli.Stats()
	if stats.BreakerOpens != 1 {
		t.Fatalf("breaker opens = %d, want 1", stats.BreakerOpens)
	}
	if stats.Endpoints[0].BreakerState != "open" {
		t.Fatalf("breaker state %q, want open", stats.Endpoints[0].BreakerState)
	}

	// Serve a minimal e-column responder on the same address.
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	defer ln2.Close()
	go func() {
		for {
			conn, err := ln2.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				wc := wire.NewConn(conn, 10*time.Second)
				for {
					if _, err := wc.Recv(); err != nil {
						return
					}
					if err := wc.Send(&wire.Envelope{Kind: wire.KindEColumn, EColumn: []int64{1}}); err != nil {
						return
					}
				}
			}()
		}
	}()
	time.Sleep(150 * time.Millisecond) // let the cooldown elapse
	if _, err := cli.EColumn(0); err != nil {
		t.Fatalf("half-open probe failed after recovery: %v", err)
	}
	if state := cli.Stats().Endpoints[0].BreakerState; state != "closed" {
		t.Fatalf("breaker state %q after successful probe, want closed", state)
	}
}

// TestPoolRaceMixedLoad hammers one pooled client from concurrent
// PU-update, SU-request and public-data workers; meaningful under
// -race (the CI race job includes this package).
func TestPoolRaceMixedLoad(t *testing.T) {
	n := startNet(t)
	cli := DialSDCWith(Options{CallTimeout: 30 * time.Second, PoolSize: 4}, n.sdcAddr)
	defer cli.Close()

	planner := mustPlanner(t, n.params.Watch)
	su, err := pisa.NewSU(rand.Reader, "su-race", 7, n.params, planner, n.stpClient.GroupKey())
	if err != nil {
		t.Fatal(err)
	}
	if err := n.stpClient.RegisterSU(su.ID(), su.PublicKey()); err != nil {
		t.Fatal(err)
	}
	eCol, err := cli.EColumn(8)
	if err != nil {
		t.Fatal(err)
	}
	pu, err := pisa.NewPU(rand.Reader, "tv-race", 8, eCol, n.stpClient.GroupKey(), n.params)
	if err != nil {
		t.Fatal(err)
	}
	weak := n.params.Watch.Quantize(n.params.Watch.SMinPUmW)

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	// Two readers of public data.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				if _, err := cli.EColumn(geo.BlockID(i % 4)); err != nil {
					errs <- err
					return
				}
				if _, err := cli.VerifyKey(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	// One PU flapping between channels.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			u, err := pu.Tune(i%2, weak)
			if err != nil {
				errs <- err
				return
			}
			if err := cli.SendUpdate(u); err != nil {
				errs <- err
				return
			}
		}
	}()
	// One SU requesting.
	wg.Add(1)
	go func() {
		defer wg.Done()
		vk, err := cli.VerifyKey()
		if err != nil {
			errs <- err
			return
		}
		for i := 0; i < 2; i++ {
			req, err := su.PrepareRequest(map[int]int64{1: 100}, geo.Disclosure{})
			if err != nil {
				errs <- err
				return
			}
			resp, err := cli.SendRequest(req)
			if err != nil {
				errs <- err
				return
			}
			if _, err := su.OpenResponse(resp, req, vk); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if stats := cli.Stats(); stats.Calls == 0 || stats.Dials == 0 {
		t.Errorf("implausible stats after mixed load: %+v", stats)
	}
}

// flakyListener gives every accepted connection a random read-byte
// budget after which it is torn down mid-stream — a dropP fraction
// die almost immediately — modelling a lossy network path for the
// fault-injection CI job.
type flakyListener struct {
	net.Listener
	mu    sync.Mutex
	rng   *mrand.Rand
	dropP float64
}

func (l *flakyListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	// Survivors get room for the gob type preamble plus first request
	// (~850 bytes) and a few more ~14-byte requests before dying; a
	// dropP fraction die during the very first exchange.
	budget := 900 + int64(l.rng.Intn(400))
	if l.rng.Float64() < l.dropP {
		budget = int64(l.rng.Intn(32))
	}
	l.mu.Unlock()
	return &flakyConn{Conn: conn, budget: budget}, nil
}

// flakyConn closes itself once the server has read its byte budget:
// some connections die before the first reply, others a few requests
// in — always mid-protocol from the client's point of view.
type flakyConn struct {
	net.Conn
	budget int64
	read   int64
}

func (c *flakyConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read += int64(n)
	if err == nil && c.read > c.budget {
		c.Conn.Close()
	}
	return n, err
}

// TestFaultInjectionFlakyListener runs idempotent calls through a
// listener that randomly kills connections; every call must still get
// an authoritative answer through the retry layer. PISA_FAULT_ITERS
// scales the iteration count up in the dedicated CI job.
func TestFaultInjectionFlakyListener(t *testing.T) {
	iters := 40
	if s := os.Getenv("PISA_FAULT_ITERS"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("bad PISA_FAULT_ITERS %q: %v", s, err)
		}
		iters = v
	}
	params := pisa.TestParams(testWatchParams(t))
	stp, err := pisa.NewSTP(rand.Reader, params.PaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewSTPServer(stp, nil, 10*time.Second)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakyListener{
		Listener: ln,
		rng:      mrand.New(mrand.NewSource(41)),
		dropP:    0.4,
	}
	go func() { _ = srv.Serve(flaky) }()
	t.Cleanup(func() { srv.Close() })

	cli, err := DialSTPWith(Options{
		CallTimeout: 5 * time.Second,
		Retry:       RetryPolicy{MaxAttempts: 12, BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond},
		Breaker:     BreakerConfig{FailureThreshold: 1 << 30}, // isolate the retry path
	}, ln.Addr().String())
	if err != nil {
		t.Fatalf("DialSTP through flaky listener: %v", err)
	}
	defer cli.Close()
	var remote *wire.RemoteError
	for i := 0; i < iters; i++ {
		_, err := cli.SUKey("nobody")
		if !errors.As(err, &remote) {
			t.Fatalf("call %d: %v, want the authoritative RemoteError despite connection drops", i, err)
		}
	}
	stats := cli.Stats()
	t.Logf("flaky run: %d calls, %d retries, %d transport faults, %d dials",
		stats.Calls, stats.Retries, stats.TransportFaults, stats.Dials)
	if stats.TransportFaults == 0 {
		t.Error("flaky listener injected no faults; fixture broken")
	}
}

// benchEchoServer answers every request with a canned E column, so
// the benchmarks below measure the RPC layer (framing, pool,
// semaphore), not protocol crypto.
func benchEchoServer(b *testing.B) string {
	b.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				wc := wire.NewConn(conn, 10*time.Second)
				for {
					if _, err := wc.Recv(); err != nil {
						return
					}
					if err := wc.Send(&wire.Envelope{Kind: wire.KindEColumn, EColumn: []int64{1, 2, 3}}); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// benchmarkPool drives concurrent callers through one client with the
// given pool size; size 1 serialises every caller on a single socket.
func benchmarkPool(b *testing.B, size int) {
	cli := DialSDCWith(Options{CallTimeout: 10 * time.Second, PoolSize: size}, benchEchoServer(b))
	defer cli.Close()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := cli.EColumn(0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkClientPoolSize1(b *testing.B) { benchmarkPool(b, 1) }
func BenchmarkClientPoolSize4(b *testing.B) { benchmarkPool(b, 4) }
