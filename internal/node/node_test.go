package node

import (
	"bytes"
	"crypto/rand"
	"encoding/gob"
	"errors"
	"log/slog"
	"math/big"
	"net"
	"strings"
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

// hostilePacked stands in for matrix.Packed on a hostile SU's side: it
// gob-encodes the fields of Packed's wire form with the slot geometry
// the SU declares.
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

// TestSDCServerRefusesHostileSlotWidth: an SU request whose F matrix
// declares a slot width of 2^62 bits, so that slots*slotBits overflows
// an int, gets an error reply, and the connection serves on.
func TestSDCServerRefusesHostileSlotWidth(t *testing.T) {
	n := startNet(t)
	raw, err := net.Dial("tcp", n.sdcAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if err := raw.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	enc, dec := gob.NewEncoder(raw), gob.NewDecoder(raw)
	type request struct {
		SUID string
		FP   hostilePacked
	}
	err = enc.Encode(&struct {
		Kind    wire.Kind
		Request *request
	}{wire.KindSURequest, &request{
		SUID: "su-1",
		FP:   hostilePacked{Channels: 1, Blocks: 2, Slots: 2, SlotBits: 1 << 62, PayloadBits: 1, KeyN: big.NewInt(1<<61 - 1)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	var reply wire.Envelope
	if err := dec.Decode(&reply); err != nil || reply.Kind != wire.KindError || !strings.Contains(reply.Err, "slot width") {
		t.Fatalf("reply %+v, %v: want an error reply naming the slot width", reply, err)
	}
	if err := enc.Encode(&wire.Envelope{Kind: wire.KindEColumnRequest, Block: 0}); err != nil {
		t.Fatal(err)
	}
	reply = wire.Envelope{}
	if err := dec.Decode(&reply); err != nil || reply.Kind != wire.KindEColumn {
		t.Fatalf("reply after the refusal %+v, %v: want an E column", reply, err)
	}
}

// TestSTPServerRefusesRetiredKind: an envelope of a retired kind (16,
// the co-STP partial-decryption request) gets an error reply naming the
// kind, and the same connection then serves a group-key request.
func TestSTPServerRefusesRetiredKind(t *testing.T) {
	stp, err := pisa.NewSTP(rand.Reader, 256)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewSTPServer(stp, nil, 5*time.Second)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if err := raw.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	enc, dec := gob.NewEncoder(raw), gob.NewDecoder(raw)
	if err := enc.Encode(&wire.Envelope{Kind: 16}); err != nil {
		t.Fatal(err)
	}
	var reply wire.Envelope
	if err := dec.Decode(&reply); err != nil || reply.Kind != wire.KindError || !strings.Contains(reply.Err, "kind(16)") {
		t.Fatalf("reply %+v, %v: want an error reply naming kind(16)", reply, err)
	}
	if err := enc.Encode(&wire.Envelope{Kind: wire.KindGroupKeyRequest}); err != nil {
		t.Fatal(err)
	}
	reply = wire.Envelope{}
	if err := dec.Decode(&reply); err != nil || reply.Kind != wire.KindGroupKey || reply.Paillier == nil || reply.Paillier.N.Cmp(stp.GroupKey().N) != 0 {
		t.Fatalf("reply after the refusal %+v, %v: want the STP's group key", reply, err)
	}
}

// TestDistributedSTPOverTCP runs the no-single-STP deployment with the
// SDC behind its TCP server: the SDC's sign conversions go to a 2-of-2
// DistSTP whose co-STPs run in process, while the PU and the SU reach
// the SDC only over the wire. An interfering request is denied and a
// quiet one granted.
func TestDistributedSTPOverTCP(t *testing.T) {
	wp := testWatchParams(t)
	params := pisa.TestParams(wp)
	dist, err := pisa.NewDistSTP(rand.Reader, params.PaillierBits, 2)
	if err != nil {
		t.Fatal(err)
	}
	sdc, err := pisa.NewSDC("sdc-dist-tcp", params, nil, dist)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewSDCServer(sdc, nil, 30*time.Second)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { srv.Close() })
	cli := DialSDC(ln.Addr().String(), 30*time.Second)
	t.Cleanup(func() { cli.Close() })

	planner, err := watch.NewPlanner(wp)
	if err != nil {
		t.Fatal(err)
	}
	su, err := pisa.NewSU(rand.Reader, "su-1", 7, params, planner, dist.GroupKey())
	if err != nil {
		t.Fatal(err)
	}
	if err := dist.RegisterSU(su.ID(), su.PublicKey()); err != nil {
		t.Fatal(err)
	}
	// PU constrains channel 1; the decision must be computed by the
	// two co-STPs jointly.
	eCol, err := cli.EColumn(8)
	if err != nil {
		t.Fatalf("EColumn: %v", err)
	}
	pu, err := pisa.NewPU(rand.Reader, "tv", 8, eCol, dist.GroupKey(), params)
	if err != nil {
		t.Fatal(err)
	}
	update, err := pu.Tune(1, wp.Quantize(wp.SMinPUmW))
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.SendUpdate(update); err != nil {
		t.Fatalf("SendUpdate: %v", err)
	}
	verifyKey, err := cli.VerifyKey()
	if err != nil {
		t.Fatalf("VerifyKey: %v", err)
	}
	ask := func(eirpMW float64) bool {
		t.Helper()
		req, err := su.PrepareRequest(map[int]int64{1: wp.Quantize(eirpMW)}, geo.Disclosure{})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := cli.SendRequest(req)
		if err != nil {
			t.Fatalf("SendRequest: %v", err)
		}
		grant, err := su.OpenResponse(resp, req, verifyKey)
		if err != nil {
			t.Fatalf("OpenResponse: %v", err)
		}
		return grant.Granted
	}
	if ask(4000) {
		t.Fatal("interfering SU granted through the distributed STP")
	}
	if !ask(1e-3) {
		t.Fatal("quiet SU denied through the distributed STP")
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
