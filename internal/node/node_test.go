package node

import (
	"crypto/rand"
	"errors"
	"log/slog"
	"net"
	"testing"
	"time"

	"pisa/internal/geo"
	"pisa/internal/pisa"
	"pisa/internal/propagation"
	"pisa/internal/watch"
	"pisa/internal/wire"
)

// testnet is a full two-server deployment over loopback TCP.
type testnet struct {
	params    pisa.Params
	stp       *pisa.STP
	sdc       *pisa.SDC
	stpClient *STPClient
	sdcAddr   string
	stpAddr   string
}

func testWatchParams(t *testing.T) watch.Params {
	t.Helper()
	g, err := geo.NewGrid(5, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	return watch.Params{
		Channels:    3,
		Grid:        g,
		UnitsPerMW:  1e9,
		SUMaxEIRPmW: 4000,
		SMinPUmW:    1e-5,
		DeltaInt:    32,
		Secondary:   propagation.LogDistance{RefLossDB: 40, Exponent: 3.5},
		WorstCase:   propagation.LogDistance{RefLossDB: 60, Exponent: 4},
	}
}

// startNet boots STP and SDC servers on ephemeral loopback ports.
func startNet(t *testing.T) *testnet {
	t.Helper()
	params := pisa.TestParams(testWatchParams(t))
	stp, err := pisa.NewSTP(rand.Reader, params.PaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	log := slog.New(slog.NewTextHandler(testWriter{t}, &slog.HandlerOptions{Level: slog.LevelWarn}))

	stpSrv := NewSTPServer(stp, log, 10*time.Second)
	stpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = stpSrv.Serve(stpLn) }()
	t.Cleanup(func() { stpSrv.Close() })

	stpClient, err := DialSTP(stpLn.Addr().String(), 10*time.Second)
	if err != nil {
		t.Fatalf("DialSTP: %v", err)
	}
	t.Cleanup(func() { stpClient.Close() })

	sdc, err := pisa.NewSDC("sdc-net", params, nil, stpClient)
	if err != nil {
		t.Fatalf("NewSDC: %v", err)
	}
	sdcSrv := NewSDCServer(sdc, log, 10*time.Second)
	sdcLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = sdcSrv.Serve(sdcLn) }()
	t.Cleanup(func() { sdcSrv.Close() })

	return &testnet{
		params:    params,
		stp:       stp,
		sdc:       sdc,
		stpClient: stpClient,
		sdcAddr:   sdcLn.Addr().String(),
		stpAddr:   stpLn.Addr().String(),
	}
}

// testWriter adapts t.Log for slog output.
type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(string(p))
	return len(p), nil
}

func TestNetworkedEndToEnd(t *testing.T) {
	n := startNet(t)
	sdcCli := DialSDC(n.sdcAddr, 30*time.Second)
	defer sdcCli.Close()
	stpCli, err := DialSTP(n.stpAddr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer stpCli.Close()

	// PU boots: fetches its public E column over the wire, tunes in.
	eCol, err := sdcCli.EColumn(8)
	if err != nil {
		t.Fatalf("EColumn: %v", err)
	}
	pu, err := pisa.NewPU(rand.Reader, "tv-1", 8, eCol, stpCli.GroupKey(), n.params)
	if err != nil {
		t.Fatal(err)
	}
	weak := n.params.Watch.Quantize(n.params.Watch.SMinPUmW)
	update, err := pu.Tune(1, weak)
	if err != nil {
		t.Fatal(err)
	}
	if err := sdcCli.SendUpdate(update); err != nil {
		t.Fatalf("SendUpdate: %v", err)
	}

	// SU boots: registers its key with the STP over the wire.
	planner, err := watch.NewPlanner(n.params.Watch)
	if err != nil {
		t.Fatal(err)
	}
	su, err := pisa.NewSU(rand.Reader, "su-1", 7, n.params, planner, stpCli.GroupKey())
	if err != nil {
		t.Fatal(err)
	}
	if err := stpCli.RegisterSU(su.ID(), su.PublicKey()); err != nil {
		t.Fatalf("RegisterSU: %v", err)
	}
	verifyKey, err := sdcCli.VerifyKey()
	if err != nil {
		t.Fatalf("VerifyKey: %v", err)
	}

	// Max-power request adjacent to the weak PU: denied.
	maxUnits := n.params.Watch.Quantize(n.params.Watch.SUMaxEIRPmW)
	req, err := su.PrepareRequest(map[int]int64{1: maxUnits}, geo.Disclosure{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := sdcCli.SendRequest(req)
	if err != nil {
		t.Fatalf("SendRequest: %v", err)
	}
	grant, err := su.OpenResponse(resp, req, verifyKey)
	if err != nil {
		t.Fatalf("OpenResponse: %v", err)
	}
	if grant.Granted {
		t.Fatal("interfering SU granted over the network")
	}

	// PU off: the same request is now granted.
	off, err := pu.Off()
	if err != nil {
		t.Fatal(err)
	}
	if err := sdcCli.SendUpdate(off); err != nil {
		t.Fatal(err)
	}
	req2, err := su.RefreshRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2, err := sdcCli.SendRequest(req2)
	if err != nil {
		t.Fatal(err)
	}
	grant2, err := su.OpenResponse(resp2, req2, verifyKey)
	if err != nil {
		t.Fatal(err)
	}
	if !grant2.Granted {
		t.Fatal("quiet channel denied over the network")
	}
	if len(grant2.Signature) == 0 {
		t.Fatal("granted without a signature")
	}
}

func TestRemoteErrorsSurface(t *testing.T) {
	n := startNet(t)
	sdcCli := DialSDC(n.sdcAddr, 10*time.Second)
	defer sdcCli.Close()

	// Unknown SU: the SDC-side lookup fails and comes back as a
	// remote error, leaving the connection usable.
	planner, err := watch.NewPlanner(n.params.Watch)
	if err != nil {
		t.Fatal(err)
	}
	su, err := pisa.NewSU(rand.Reader, "ghost", 7, n.params, planner, n.stp.GroupKey())
	if err != nil {
		t.Fatal(err)
	}
	req, err := su.PrepareRequest(map[int]int64{0: 100}, geo.Disclosure{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = sdcCli.SendRequest(req)
	var remote *wire.RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("got %v, want RemoteError", err)
	}
	// Connection still works for public data.
	if _, err := sdcCli.EColumn(0); err != nil {
		t.Fatalf("connection unusable after remote error: %v", err)
	}
	// Invalid block: remote error again.
	if _, err := sdcCli.EColumn(9999); err == nil {
		t.Fatal("invalid block accepted")
	}
}

func TestServerCloseDisconnectsClients(t *testing.T) {
	params := pisa.TestParams(testWatchParams(t))
	stp, err := pisa.NewSTP(rand.Reader, params.PaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewSTPServer(stp, nil, 5*time.Second)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()

	cli, err := DialSTP(ln.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v after Close, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
	// Double close is safe.
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	// Existing client calls fail fast instead of hanging.
	if _, err := cli.SUKey("anyone"); err == nil {
		t.Fatal("call succeeded against a closed server")
	}
}

func TestDialSTPFailsFast(t *testing.T) {
	if _, err := DialSTP("127.0.0.1:1", 500*time.Millisecond); err == nil {
		t.Fatal("dial to dead port succeeded")
	}
}

func TestConcurrentRequests(t *testing.T) {
	n := startNet(t)
	planner, err := watch.NewPlanner(n.params.Watch)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 3
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			errs <- func() error {
				cli := DialSDC(n.sdcAddr, 30*time.Second)
				defer cli.Close()
				stpCli, err := DialSTP(n.stpAddr, 10*time.Second)
				if err != nil {
					return err
				}
				defer stpCli.Close()
				id := string(rune('A' + w))
				su, err := pisa.NewSU(rand.Reader, "su-"+id, geo.BlockID(w), n.params, planner, stpCli.GroupKey())
				if err != nil {
					return err
				}
				if err := stpCli.RegisterSU(su.ID(), su.PublicKey()); err != nil {
					return err
				}
				vk, err := cli.VerifyKey()
				if err != nil {
					return err
				}
				req, err := su.PrepareRequest(map[int]int64{0: 1000}, geo.Disclosure{})
				if err != nil {
					return err
				}
				resp, err := cli.SendRequest(req)
				if err != nil {
					return err
				}
				grant, err := su.OpenResponse(resp, req, vk)
				if err != nil {
					return err
				}
				if !grant.Granted {
					return errors.New("quiet SU denied")
				}
				return nil
			}()
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Errorf("worker: %v", err)
		}
	}
}

func TestClientRedialsAfterServerRestart(t *testing.T) {
	params := pisa.TestParams(testWatchParams(t))
	stp, err := pisa.NewSTP(rand.Reader, params.PaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	srv := NewSTPServer(stp, nil, 5*time.Second)
	go func() { _ = srv.Serve(ln) }()

	cli, err := DialSTP(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.SUKey("nobody"); err == nil {
		t.Fatal("lookup of unknown SU succeeded")
	}

	// Kill the server: in-flight connection dies.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.SUKey("nobody"); err == nil {
		t.Fatal("call succeeded against dead server")
	}

	// Restart on the same address (same STP state) — the client
	// must transparently redial on the next call.
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	srv2 := NewSTPServer(stp, nil, 5*time.Second)
	go func() { _ = srv2.Serve(ln2) }()
	t.Cleanup(func() { srv2.Close() })

	deadline := time.Now().Add(10 * time.Second)
	for {
		// A RemoteError means the transport is healthy again (the
		// unknown-SU lookup is expected to fail remotely).
		_, err := cli.SUKey("nobody")
		var remote *wire.RemoteError
		if errors.As(err, &remote) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("client never recovered: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestServerStats(t *testing.T) {
	n := startNet(t)
	cli := DialSDC(n.sdcAddr, 10*time.Second)
	defer cli.Close()
	if _, err := cli.EColumn(0); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.EColumn(9999); err == nil {
		t.Fatal("invalid block accepted")
	}
	// Reach through the testnet to the server... the server object
	// is not retained by startNet, so exercise a dedicated one.
	params := pisa.TestParams(testWatchParams(t))
	stp, err := pisa.NewSTP(rand.Reader, params.PaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewSTPServer(stp, nil, 5*time.Second)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { srv.Close() })
	c, err := DialSTP(ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.SUKey("ghost"); err == nil {
		t.Fatal("unknown SU accepted")
	}
	stats := srv.Stats()
	if stats.Connections == 0 {
		t.Error("no connections counted")
	}
	if stats.Requests < 2 { // group key fetch + SUKey
		t.Errorf("requests = %d, want >= 2", stats.Requests)
	}
	if stats.Errors == 0 {
		t.Error("handler error not counted")
	}
}

func TestSessionOverNetwork(t *testing.T) {
	n := startNet(t)
	cli := DialSDC(n.sdcAddr, 30*time.Second)
	defer cli.Close()
	stpCli, err := DialSTP(n.stpAddr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer stpCli.Close()
	planner, err := watch.NewPlanner(n.params.Watch)
	if err != nil {
		t.Fatal(err)
	}
	su, err := pisa.NewSU(rand.Reader, "su-sess", 7, n.params, planner, stpCli.GroupKey())
	if err != nil {
		t.Fatal(err)
	}
	if err := stpCli.RegisterSU(su.ID(), su.PublicKey()); err != nil {
		t.Fatal(err)
	}
	vk, err := cli.VerifyKey()
	if err != nil {
		t.Fatal(err)
	}
	// The repeated-use flow of §VI-A over TCP: prepare once, then submit
	// a refresh of the prepared request whenever spectrum is needed. Each
	// refresh re-sends the same ciphertexts, and every license binds to
	// them.
	base, err := su.PrepareRequest(map[int]int64{0: 1000}, geo.Disclosure{})
	if err != nil {
		t.Fatal(err)
	}
	var sdc pisa.SDCService = cli
	var serials []uint64
	for round := 0; round < 2; round++ {
		req, err := su.RefreshRequest(base)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := sdc.ProcessRequest(req)
		if err != nil {
			t.Fatalf("round %d over TCP: %v", round, err)
		}
		grant, err := su.OpenResponse(resp, req, vk)
		if err != nil {
			t.Fatal(err)
		}
		if !grant.Granted || !grant.License.ValidAt(time.Now().Unix()) {
			t.Fatalf("round %d: networked SU not authorized on a free channel", round)
		}
		serials = append(serials, grant.License.Serial)
	}
	if serials[0] == serials[1] {
		t.Fatalf("both rounds were issued serial %d", serials[0])
	}
}
