package main

import (
	"bytes"
	"log/slog"
	"net"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"pisa/internal/config"
	"pisa/internal/deploy"
	"pisa/internal/geo"
	"pisa/internal/node"
	"pisa/internal/pisa"
	"pisa/internal/watch"
	"pisa/internal/wire"
)

func TestRunRejectsBadConfigPath(t *testing.T) {
	if err := run([]string{"-config", "/nonexistent/pisa.json"}); err == nil {
		t.Fatal("missing config accepted")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-no-such-flag"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

// TestRunRejectsUnknownBackend: sdcd serves PISA and nothing else. A
// backend nobody knows is refused, and so is "pir" — by the name of the
// daemon that does serve it — before any STP is dialled.
func TestRunRejectsUnknownBackend(t *testing.T) {
	for _, tc := range []struct{ backend, want string }{
		{"smoke-signals", "unknown backend"},
		{config.BackendPIR, "cmd/pirdbd"},
	} {
		cfg := config.Default()
		cfg.Backend = tc.backend
		cfgPath := t.TempDir() + "/pisa.json"
		if err := cfg.Save(cfgPath); err != nil {
			t.Fatal(err)
		}
		err := run([]string{"-config", cfgPath, "-stp", "127.0.0.1:1", "-listen", "127.0.0.1:0"})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("backend %q: run error = %v, want one naming %q", tc.backend, err, tc.want)
		}
	}
}

func TestRunFailsFastWithoutSTP(t *testing.T) {
	// Port 1 is never listening; the SDC must fail on dial, not hang.
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-stp", "127.0.0.1:1", "-listen", "127.0.0.1:0"})
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("run succeeded with no STP")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run hung without an STP")
	}
}

func TestRunServesAgainstRealSTP(t *testing.T) {
	if testing.Short() {
		t.Skip("spins real servers")
	}
	cfg := config.Default()
	cfg.Channels = 2
	cfg.GridCols = 3
	cfg.GridRows = 2
	params, err := cfg.PisaParams()
	if err != nil {
		t.Fatal(err)
	}
	stp, err := pisa.NewSTP(nil, params.PaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	stpSrv := node.NewSTPServer(stp, nil, time.Minute)
	stpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = stpSrv.Serve(stpLn) }()
	t.Cleanup(func() { stpSrv.Close() })

	// Pick a free port for the SDC, then release it for run().
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sdcAddr := probe.Addr().String()
	probe.Close()

	cfgPath := t.TempDir() + "/pisa.json"
	cfg.STPAddr = stpLn.Addr().String()
	if err := cfg.Save(cfgPath); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-config", cfgPath, "-listen", sdcAddr})
	}()

	// Poll until the daemon answers a public-data request.
	cli := node.DialSDC(sdcAddr, 5*time.Second)
	defer cli.Close()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := cli.EColumn(0); err == nil {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("sdcd never became ready: %v", err)
		} else if _, remote := err.(*wire.RemoteError); remote {
			t.Fatalf("sdcd rejected a valid block: %v", err)
		}
		time.Sleep(100 * time.Millisecond)
	}
	select {
	case err := <-done:
		t.Fatalf("sdcd exited early: %v", err)
	default:
	}
	// The daemon keeps running; the test process exiting tears it
	// down (goroutines die with the process).
}

// TestShardDaemonRefusesVerifyKey: a -shard-index daemon serves one
// channel window and issues no licenses, so a client asking it for the
// license key is sent to the router.
func TestShardDaemonRefusesVerifyKey(t *testing.T) {
	if testing.Short() {
		t.Skip("spins real servers")
	}
	cfg := config.Default()
	cfg.Channels, cfg.GridCols, cfg.GridRows = 2, 3, 2
	params, err := cfg.PisaParams()
	if err != nil {
		t.Fatal(err)
	}
	stp, err := pisa.NewSTP(nil, params.PaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	stpSrv := node.NewSTPServer(stp, nil, time.Minute)
	stpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = stpSrv.Serve(stpLn) }()
	t.Cleanup(func() { stpSrv.Close() })

	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	probe.Close()
	cfgPath := t.TempDir() + "/pisa.json"
	cfg.STPAddr = stpLn.Addr().String()
	if err := cfg.Save(cfgPath); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-config", cfgPath, "-listen", addr, "-shard-index", "0", "-shard-count", "2"})
	}()
	cli := waitReady(t, addr, done)
	defer cli.Close()
	if _, err := cli.VerifyKey(); err == nil || !strings.Contains(err.Error(), "ask the router") {
		t.Fatalf("VerifyKey from a shard daemon: error = %v, want a refusal naming the router", err)
	}
}

// waitReady polls an sdcd address until it answers public-data
// requests.
func waitReady(t *testing.T, addr string, done chan error) *node.SDCClient {
	t.Helper()
	cli := node.DialSDC(addr, 5*time.Second)
	deadline := time.Now().Add(60 * time.Second)
	for {
		if _, err := cli.EColumn(0); err == nil {
			return cli
		} else if time.Now().After(deadline) {
			t.Fatalf("sdcd never became ready: %v", err)
		}
		select {
		case err := <-done:
			t.Fatalf("sdcd exited during startup: %v", err)
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// TestRunRecoversFromStore boots a durable sdcd, feeds it a PU update,
// shuts it down gracefully, and restarts it against the same state
// directory: the recovered daemon must still deny a max-power SU next
// to the active PU.
func TestRunRecoversFromStore(t *testing.T) {
	if testing.Short() {
		t.Skip("spins real servers twice")
	}
	cfg := config.Default()
	cfg.Channels = 3
	cfg.GridCols = 5
	cfg.GridRows = 4
	params, err := cfg.PisaParams()
	if err != nil {
		t.Fatal(err)
	}
	stp, err := pisa.NewSTP(nil, params.PaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	stpSrv := node.NewSTPServer(stp, nil, time.Minute)
	stpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = stpSrv.Serve(stpLn) }()
	t.Cleanup(func() { stpSrv.Close() })

	dir := t.TempDir()
	cfgPath := dir + "/pisa.json"
	storeDir := dir + "/state"
	cfg.STPAddr = stpLn.Addr().String()
	if err := cfg.Save(cfgPath); err != nil {
		t.Fatal(err)
	}
	boot := func(addr string) chan error {
		done := make(chan error, 1)
		go func() {
			done <- run([]string{"-config", cfgPath, "-listen", addr, "-store", storeDir})
		}()
		return done
	}

	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr1 := probe.Addr().String()
	probe.Close()
	done := boot(addr1)
	cli := waitReady(t, addr1, done)

	// Activate a weak PU, then shut the daemon down gracefully: the
	// -snapshot-on-exit default must leave a recoverable snapshot.
	col, err := cli.EColumn(8)
	if err != nil {
		t.Fatal(err)
	}
	pu, err := pisa.NewPU(nil, "tv-1", 8, col, stp.GroupKey(), params)
	if err != nil {
		t.Fatal(err)
	}
	u, err := pu.Tune(1, params.Watch.Quantize(params.Watch.SMinPUmW))
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.SendUpdate(u); err != nil {
		t.Fatal(err)
	}
	cli.Close()
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("sdcd did not exit on SIGTERM")
	}
	snaps, err := filepath.Glob(storeDir + "/snap-*.snap")
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no snapshot after graceful exit (err %v)", err)
	}

	// Second boot recovers from the state directory.
	probe, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr2 := probe.Addr().String()
	probe.Close()
	done = boot(addr2)
	cli = waitReady(t, addr2, done)
	defer cli.Close()

	planner, err := watch.NewSystem(params.Watch, nil)
	if err != nil {
		t.Fatal(err)
	}
	su, err := pisa.NewSU(nil, "su-1", 7, params, planner.Planner(), stp.GroupKey())
	if err != nil {
		t.Fatal(err)
	}
	if err := stp.RegisterSU("su-1", su.PublicKey()); err != nil {
		t.Fatal(err)
	}
	req, err := su.PrepareRequest(map[int]int64{1: params.Watch.Quantize(params.Watch.SUMaxEIRPmW)}, geo.Disclosure{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := cli.SendRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	vk, err := cli.VerifyKey()
	if err != nil {
		t.Fatal(err)
	}
	grant, err := su.OpenResponse(resp, req, vk)
	if err != nil {
		t.Fatal(err)
	}
	if grant.Granted {
		t.Fatal("recovered SDC forgot the active PU next door")
	}
}

// TestStateSummaryNamesEachShard: the shutdown state summary labels the
// one shard a -shard-index daemon serves with its index and window, and
// leaves a full-window SDC unlabelled.
func TestStateSummaryNamesEachShard(t *testing.T) {
	cfg := config.Default()
	cfg.Channels, cfg.GridCols, cfg.GridRows = 4, 3, 2
	params, err := cfg.PisaParams()
	if err != nil {
		t.Fatal(err)
	}
	stp, err := pisa.NewSTP(nil, params.PaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  deploy.Config
		want []string
	}{
		{"monolith", deploy.Config{}, nil},
		{"-shard-index 1 -shard-count 2", deploy.Config{Windows: 2, Index: 1}, []string{"shard=1", "window=[2,4)"}},
	} {
		tc.cfg.Issuer, tc.cfg.Params, tc.cfg.STP = "pisa-sdc", params, stp
		d, err := deploy.New(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var buf bytes.Buffer
		logSummary(slog.New(slog.NewTextHandler(&buf, nil)), d)
		line := buf.String()
		if !strings.Contains(line, "state summary") {
			t.Fatalf("%s: no state summary logged: %q", tc.name, line)
		}
		for _, label := range tc.want {
			if !strings.Contains(line, " "+label+" ") {
				t.Errorf("%s: the summary lacks %s: %q", tc.name, label, line)
			}
		}
		if tc.want == nil && strings.Contains(line, "shard=") {
			t.Errorf("%s: a full-window SDC's summary names a shard: %q", tc.name, line)
		}
		d.Close(false)
	}
}
