package node

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"net"
	"strings"
	"testing"
	"time"

	"pisa/internal/geo"
	"pisa/internal/pir"
	"pisa/internal/wire"
)

// pirNet is a replica fleet over loopback TCP.
type pirNet struct {
	dbs     []*pir.Database
	servers []*PIRServer
	addrs   []string
}

// startPIRNet boots m replica servers on ephemeral loopback ports.
func startPIRNet(t *testing.T, m int) *pirNet {
	t.Helper()
	log := slog.New(slog.NewTextHandler(testWriter{t}, &slog.HandlerOptions{Level: slog.LevelWarn}))
	n := &pirNet{}
	for i := 0; i < m; i++ {
		db, err := pir.NewDatabase(testWatchParams(t))
		if err != nil {
			t.Fatal(err)
		}
		srv := NewPIRServer(db, log, 10*time.Second)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = srv.Serve(ln) }()
		t.Cleanup(func() { srv.Close() })
		n.dbs = append(n.dbs, db)
		n.servers = append(n.servers, srv)
		n.addrs = append(n.addrs, ln.Addr().String())
	}
	return n
}

// fastOpts keeps failure paths quick in tests.
func fastOpts() Options {
	return Options{
		DialTimeout: time.Second,
		CallTimeout: 5 * time.Second,
		Retry:       RetryPolicy{MaxAttempts: 2, BaseDelay: 5 * time.Millisecond, MaxDelay: 20 * time.Millisecond},
	}
}

func TestPIREndToEnd(t *testing.T) {
	n := startPIRNet(t, 3)
	c, err := DialPIRWith(fastOpts(), 3, n.addrs...)
	if err != nil {
		t.Fatalf("DialPIRWith: %v", err)
	}
	defer c.Close()

	m := c.Meta()
	if m.Blocks != 20 || m.Channels != 3 {
		t.Fatalf("meta = %+v", m)
	}
	// Every block's PIR row must equal the replica's direct row.
	for b := 0; b < m.Blocks; b++ {
		row, ver, err := c.Fetch(context.Background(), geo.BlockID(b))
		if err != nil {
			t.Fatalf("Fetch(%d): %v", b, err)
		}
		if ver != m.Version {
			t.Fatalf("answer version %d, meta says %d", ver, m.Version)
		}
		want, err := n.dbs[0].Row(geo.BlockID(b))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(row, want) {
			t.Fatalf("Fetch(%d) = %x, want %x", b, row, want)
		}
	}
}

// TestPIRKillOneOfKSurvives is the failover acceptance test: with
// m = k+1 replicas, killing one mid-run must not break fetches — the
// spare takes over the dead replica's share.
func TestPIRKillOneOfKSurvives(t *testing.T) {
	n := startPIRNet(t, 4)
	c, err := DialPIRWith(fastOpts(), 3, n.addrs...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, _, err := c.Fetch(context.Background(), 3); err != nil {
		t.Fatalf("pre-kill fetch: %v", err)
	}
	// Kill one of the replicas the client is actively using.
	n.servers[1].Close()

	for i := 0; i < 5; i++ {
		row, _, err := c.Fetch(context.Background(), 3)
		if err != nil {
			t.Fatalf("fetch %d after kill: %v", i, err)
		}
		want, err := n.dbs[0].Row(3)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(row, want) {
			t.Fatalf("fetch %d after kill: row %x, want %x", i, row, want)
		}
	}
}

// TestPIRDegradedCleanError is the fault-injection acceptance test:
// with exactly m = k replicas, killing one must surface a prompt,
// descriptive degraded-mode error — not a hang, and not a privacy-
// violating double-share.
func TestPIRDegradedCleanError(t *testing.T) {
	n := startPIRNet(t, 3)
	c, err := DialPIRWith(fastOpts(), 3, n.addrs...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	n.servers[2].Close()

	done := make(chan error, 1)
	go func() {
		_, _, err := c.Fetch(context.Background(), 0)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("fetch succeeded with only k-1 live replicas")
		}
		if !strings.Contains(err.Error(), "degraded") {
			t.Fatalf("error %q does not name degraded mode", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("degraded fetch hung instead of failing cleanly")
	}
}

// TestPIRVersionSkewDetected: a replica that missed an update answers
// with an older version; the fetch must retry and, with the skew
// persisting, fail with a version error instead of returning a
// corrupted XOR of mismatched rows.
func TestPIRVersionSkewDetected(t *testing.T) {
	n := startPIRNet(t, 3)
	c, err := DialPIRWith(fastOpts(), 3, n.addrs...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Apply an update to only 2 of 3 replicas.
	wp := testWatchParams(t)
	u := &pir.Update{PUID: "pu-skew", Block: 2, Channel: 0, SignalUnits: wp.Quantize(wp.SMinPUmW)}
	for _, db := range n.dbs[:2] {
		if err := db.ApplyUpdate(u); err != nil {
			t.Fatal(err)
		}
	}
	_, _, err = c.Fetch(context.Background(), 2)
	if err == nil {
		t.Fatal("fetch across diverged replicas succeeded")
	}
	if !strings.Contains(err.Error(), "version") {
		t.Fatalf("error %q does not name the version skew", err)
	}
	// Healing the lagging replica heals the fetch.
	if err := n.dbs[2].ApplyUpdate(u); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Fetch(context.Background(), 2); err != nil {
		t.Fatalf("fetch after heal: %v", err)
	}
}

func TestPIRDialValidation(t *testing.T) {
	if _, err := DialPIRWith(fastOpts(), 2); err == nil {
		t.Error("no addresses accepted")
	}
	if _, err := DialPIRWith(fastOpts(), 3, "127.0.0.1:1", "127.0.0.1:2"); err == nil {
		t.Error("k > replica count accepted")
	}
	for _, k := range []int{1, 0, -1} {
		if _, err := DialPIRWith(fastOpts(), k, "127.0.0.1:1", "127.0.0.1:2"); err == nil || !strings.Contains(err.Error(), "plaintext lookup") {
			t.Errorf("k=%d: %v, want a refusal naming the plaintext lookup", k, err)
		}
	}
	// All replicas down: constructor must fail, not hang.
	if _, err := DialPIRWith(fastOpts(), 2, "127.0.0.1:1", "127.0.0.1:2"); err == nil {
		t.Error("dial with no live replica succeeded")
	}
}

// TestPIRGeometryMismatchRejected: replicas serving different
// deployments must be refused at dial time.
func TestPIRGeometryMismatchRejected(t *testing.T) {
	log := slog.New(slog.NewTextHandler(testWriter{t}, &slog.HandlerOptions{Level: slog.LevelWarn}))
	good := startPIRNet(t, 1)
	wp := testWatchParams(t)
	wp.Channels = 4 // different deployment
	db, err := pir.NewDatabase(wp)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewPIRServer(db, log, 10*time.Second)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { srv.Close() })

	_, err = DialPIRWith(fastOpts(), 2, good.addrs[0], ln.Addr().String())
	if err == nil || !strings.Contains(err.Error(), "geometry") {
		t.Fatalf("geometry mismatch not rejected: %v", err)
	}
}

// TestPIRServerRejectsMalformed drives protocol-level validation
// through a raw wire connection.
func TestPIRServerRejectsMalformed(t *testing.T) {
	n := startPIRNet(t, 1)
	raw, err := net.Dial("tcp", n.addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	conn := wire.NewConn(raw, 5*time.Second)
	defer conn.Close()

	// Missing payload.
	if _, err := conn.CallContext(context.Background(), &wire.Envelope{Kind: wire.KindPIRQuery}, wire.KindPIRAnswer); err == nil {
		t.Error("payload-less query accepted")
	}
	// Wrong-length selection vector.
	_, err = conn.CallContext(context.Background(), &wire.Envelope{
		Kind:     wire.KindPIRQuery,
		PIRQuery: &pir.Query{Sel: []byte{1}},
	}, wire.KindPIRAnswer)
	var remote *wire.RemoteError
	if err == nil || !strings.Contains(err.Error(), "selection vector") {
		t.Errorf("short vector not rejected with a descriptive error: %v", err)
	} else if !errors.As(err, &remote) {
		t.Errorf("rejection is not a remote error: %v", err)
	} else if remote.Addr == "" {
		t.Error("remote error does not name the replica")
	}
	// Unexpected kind for this server.
	if _, err := conn.CallContext(context.Background(), &wire.Envelope{Kind: wire.KindSURequest}, wire.KindSUResponse); err == nil {
		t.Error("SU request accepted by PIR replica")
	}
}

// TestPIRIdempotentKinds pins the retry classification for the new
// protocol family.
func TestPIRIdempotentKinds(t *testing.T) {
	for _, k := range []wire.Kind{wire.KindPIRMetaRequest, wire.KindPIRQuery} {
		if !idempotentKind(k) {
			t.Errorf("%s not classified idempotent", k)
		}
	}
}
