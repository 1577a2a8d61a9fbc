package main

import (
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pisa/internal/bench"
	"pisa/internal/config"
	"pisa/internal/node"
	"pisa/internal/pisa"
)

// smokeArgs is CI's "pisaload smoke" workload at half its length: a
// concentrated fleet without mobility or PU churn, so shapes repeat
// inside the horizon and nothing invalidates them.
var smokeArgs = []string{
	"-mode", "closed", "-workers", "2", "-duration", "1s",
	"-fleet", "4", "-mobility", "0", "-eirp-levels", "2", "-channels-per-request", "1", "-pus", "0",
}

// runReport runs pisaload with -json and returns what it wrote.
func runReport(t *testing.T, args ...string) (bench.LoadReport, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "load.json")
	var rep bench.LoadReport
	if err := run(append(append([]string{"-json", path}, smokeArgs...), args...)); err != nil {
		return rep, err
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	return rep, nil
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-no-such-flag"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
	if err := run([]string{"-mode", "burst"}); err == nil {
		t.Fatal("unknown mode accepted")
	}
	// The in-process channel partition was removed: a partition is
	// sdcd -shard-index daemons behind sdcrouterd, driven with -addr.
	if err := run([]string{"-shards", "2"}); err == nil || !strings.Contains(err.Error(), "-shards") {
		t.Fatalf("-shards 2: %v, want an unknown-flag refusal", err)
	}
	// An SDC takes one address: a list is refused by name before any
	// dial, not by the dial that follows.
	err := run([]string{"-addr", "a:1,b:2"})
	if err == nil || !strings.Contains(err.Error(), "-addr") || !strings.Contains(err.Error(), "replica") {
		t.Fatalf("-addr a:1,b:2: %v, want a refusal naming -addr and replica groups", err)
	}
	// An STP takes one address too: STP replica groups were removed.
	err = run([]string{"-addr", "127.0.0.1:1", "-stp", "127.0.0.1:1,127.0.0.1:2"})
	if err == nil || !strings.Contains(err.Error(), "-stp takes one STP address") {
		t.Errorf("-stp 127.0.0.1:1,127.0.0.1:2: %v, want a refusal naming -stp and STP replica groups", err)
	}
	// The PIR comparison runs in process only: there is no replica
	// daemon to point -pir or -addr at.
	if err := run([]string{"-backend", "pir", "-pir", "a:1,b:2"}); err == nil || !strings.Contains(err.Error(), "-pir") {
		t.Fatalf("-pir a:1,b:2: %v, want an unknown-flag refusal", err)
	}
	if err := run([]string{"-backend", "pir", "-addr", "a:1"}); err == nil || !strings.Contains(err.Error(), "in-process") {
		t.Fatalf("-backend pir -addr a:1: %v, want a refusal naming the in-process fleet", err)
	}
}

// TestRunClosedLoopInProcess is the CI smoke through run(): the gates
// pass, and the deployment the report describes is the one the flags
// asked for.
func TestRunClosedLoopInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a one-second load scenario")
	}
	rep, err := runReport(t, "-channels", "4", "-cols", "4", "-rows", "3",
		"-bits", "640", "-require-no-errors", "-require-cache-hits")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Backend != "pisa" || rep.PaillierBits != 640 || rep.Channels != 4 || rep.Blocks != 12 {
		t.Errorf("report describes %s, %d-bit, C=%d B=%d; flags asked for pisa, 640-bit, C=4 B=12",
			rep.Backend, rep.PaillierBits, rep.Channels, rep.Blocks)
	}
	if rep.Requests == 0 || rep.CacheHits == 0 {
		t.Errorf("%d requests, %d cache hits; want both positive", rep.Requests, rep.CacheHits)
	}
}

// TestRunOneShardReportsRouterStages: the in-process deployment is the
// one-shard router, so its report carries the same stages as
// sdcrouterd's: the license is the router's, and the SDC has no license
// stage.
func TestRunOneShardReportsRouterStages(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a one-second load scenario")
	}
	rep, err := runReport(t, "-channels", "4", "-cols", "4", "-rows", "3",
		"-bits", "640", "-require-no-errors", "-require-cache-hits")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"e2e": true,
		"sdc_snapshot": true, "sdc_aggregate": true, "sdc_blind": true, "sdc_stp_convert": true, "sdc_unblind": true, "sdc_total": true,
		"router_fanout": true, "router_merge": true, "router_license": true, "router_total": true}
	got := map[string]bool{}
	for _, s := range rep.Stages {
		got[s.Stage] = true
		if !want[s.Stage] {
			t.Errorf("report carries stage %s, which no front times", s.Stage)
		}
	}
	for stage := range want {
		if !got[stage] {
			t.Errorf("report lacks stage %s", stage)
		}
	}
}

// TestRunCacheFlagReachesDeployment: -cache 0 builds an SDC without a
// decision cache, which the cache gate then reports.
func TestRunCacheFlagReachesDeployment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a one-second load scenario")
	}
	_, err := runReport(t, "-channels", "3", "-cols", "4", "-rows", "3", "-cache", "0",
		"-require-no-errors", "-require-cache-hits")
	if err == nil || !strings.Contains(err.Error(), "require-cache-hits") {
		t.Fatalf("run with -cache 0 -require-cache-hits: error = %v, want the cache gate to fail", err)
	}
}

func TestRunPIRBackend(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a one-second load scenario")
	}
	rep, err := runReport(t, "-backend", "pir", "-replicas", "3", "-k", "2",
		"-channels", "3", "-cols", "4", "-rows", "3", "-require-no-errors")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Backend != "pir" || rep.Requests == 0 {
		t.Errorf("backend %q completed %d requests; want pir and some", rep.Backend, rep.Requests)
	}
}

// serve puts srv behind a loopback listener and returns its address.
func serve(t *testing.T, srv interface {
	Serve(net.Listener) error
	Close() error
}) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// TestRunAgainstLiveDaemons drives the -addr/-stp path: the SU fleet
// reaches an STP and an SDC behind loopback sockets through the node
// clients, under the same gates.
func TestRunAgainstLiveDaemons(t *testing.T) {
	if testing.Short() {
		t.Skip("spins real servers")
	}
	cfg := config.Default()
	testKeys(&cfg)
	cfg.Channels, cfg.GridCols, cfg.GridRows = 3, 4, 3
	params, err := cfg.PisaParams()
	if err != nil {
		t.Fatal(err)
	}
	stp, err := pisa.NewSTP(nil, params.PaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	sdc, err := pisa.NewSDC("load-sdc", params, nil, stp)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sdc.Close)
	stpAddr := serve(t, node.NewSTPServer(stp, nil, time.Minute))
	sdcAddr := serve(t, node.NewSDCServer(sdc, nil, time.Minute))

	cfgPath := filepath.Join(t.TempDir(), "pisa.json")
	if err := cfg.Save(cfgPath); err != nil {
		t.Fatal(err)
	}
	rep, err := runReport(t, "-config", cfgPath,
		"-addr", sdcAddr, "-stp", stpAddr,
		"-require-no-errors", "-require-cache-hits")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 || rep.PaillierBits != params.PaillierBits {
		t.Errorf("%d requests at %d bits; want some at the config's %d",
			rep.Requests, rep.PaillierBits, params.PaillierBits)
	}
}

// testKeys sets test-size crypto widths: config.Default() carries the
// paper's 2048-bit keys.
func testKeys(cfg *config.File) {
	cfg.PaillierBits, cfg.PlaintextBits, cfg.SignerBits = 768, 60, 512
	cfg.AlphaBits, cfg.BetaBits, cfg.EtaBits = 128, 64, 64
}
