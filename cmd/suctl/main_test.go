package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pisa/internal/config"
	"pisa/internal/geo"
	"pisa/internal/node"
	"pisa/internal/pir"
	"pisa/internal/pisa"
	"pisa/internal/watch"
)

func TestParseRequest(t *testing.T) {
	wp, err := config.Default().WatchParams()
	if err != nil {
		t.Fatal(err)
	}
	got, err := parseRequest("1=100, 2=0.5", wp)
	if err != nil {
		t.Fatalf("parseRequest: %v", err)
	}
	if got[1] != wp.Quantize(100) || got[2] != wp.Quantize(0.5) {
		t.Errorf("parsed %v", got)
	}
	for _, bad := range []string{"", "1", "x=1", "1=y", "1:100"} {
		if _, err := parseRequest(bad, wp); err == nil {
			t.Errorf("bad request %q accepted", bad)
		}
	}
}

func TestParseRows(t *testing.T) {
	from, to, err := parseRows("2:5")
	if err != nil || from != 2 || to != 5 {
		t.Fatalf("parseRows = (%d, %d, %v)", from, to, err)
	}
	for _, bad := range []string{"", "2", "a:5", "2:b"} {
		if _, _, err := parseRows(bad); err == nil {
			t.Errorf("bad rows %q accepted", bad)
		}
	}
}

func TestRunFlagValidation(t *testing.T) {
	cases := [][]string{
		{},
		{"-id", "su-1"},
		{"-id", "su-1", "-block", "3"},
		{"-block", "3", "-request", "1=5"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
	// An SDC takes one address: a list is refused by name before any
	// dial, not by the dial that follows.
	err := run([]string{"-sdc", "a:1,b:2", "-id", "su-1", "-block", "3", "-request", "1=5"})
	if err == nil || !strings.Contains(err.Error(), "-sdc") || !strings.Contains(err.Error(), "replica") {
		t.Errorf("-sdc a:1,b:2: %v, want a refusal naming -sdc and replica groups", err)
	}
}

// TestRunEndToEnd drives the whole CLI against in-process servers.
func TestRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spins real servers")
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

	sdc, err := pisa.NewSDC("cli-sdc", params, nil, stp)
	if err != nil {
		t.Fatal(err)
	}
	sdcSrv := node.NewSDCServer(sdc, nil, time.Minute)
	sdcLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = sdcSrv.Serve(sdcLn) }()
	t.Cleanup(func() { sdcSrv.Close() })

	cfg.STPAddr = stpLn.Addr().String()
	cfg.SDCAddr = sdcLn.Addr().String()
	cfgPath := filepath.Join(t.TempDir(), "pisa.json")
	if err := cfg.Save(cfgPath); err != nil {
		t.Fatal(err)
	}

	// Quiet SU: the CLI must complete and report a grant.
	err = run([]string{
		"-config", cfgPath,
		"-id", "cli-su", "-block", "7", "-request", "1=0.001",
	})
	if err != nil {
		t.Fatalf("suctl run: %v", err)
	}

	// Partial disclosure path.
	err = run([]string{
		"-config", cfgPath,
		"-id", "cli-su-2", "-block", "2", "-request", "1=0.001",
		"-disclose-rows", "0:2",
	})
	if err != nil {
		t.Fatalf("suctl run with disclosure: %v", err)
	}
}

func TestRunPIRFlagValidation(t *testing.T) {
	// PIR mode drops the -id requirement but keeps -block/-request.
	if err := run([]string{"-backend", "pir"}); err == nil {
		t.Error("pir backend without -block/-request accepted")
	}
	if err := run([]string{"-backend", "semaphore", "-block", "1", "-request", "1=5"}); err == nil {
		t.Error("unknown backend accepted")
	}
	if _, err := parseTable("bitmap"); err != nil {
		t.Errorf("bitmap table rejected: %v", err)
	}
	if _, err := parseTable("BLOOM"); err != nil {
		t.Errorf("bloom table rejected: %v", err)
	}
	if _, err := parseTable("btree"); err == nil {
		t.Error("unknown table accepted")
	}
}

// startReplicas boots n in-process PIR replicas over the given radio
// parameters and returns their addresses plus direct database handles.
func startReplicas(t *testing.T, wp watch.Params, n int) ([]string, []*pir.Database) {
	t.Helper()
	var addrs []string
	var dbs []*pir.Database
	for i := 0; i < n; i++ {
		db, err := pir.NewDatabase(wp, nil, 0, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		srv := node.NewPIRServer(db, nil, time.Minute)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = srv.Serve(ln) }()
		t.Cleanup(func() { srv.Close() })
		addrs = append(addrs, ln.Addr().String())
		dbs = append(dbs, db)
	}
	return addrs, dbs
}

// TestPIRBackendMatchesOracle is the acceptance cross-check: on the
// paper-scale grid (100 channels x 600 blocks), every availability
// bit the PIR backend serves must equal an independent watch oracle's
// verdict, and the suctl CLI must print the same per-channel decision.
func TestPIRBackendMatchesOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale sweep over real servers")
	}
	cfg := config.Paper()
	wp, err := cfg.WatchParams()
	if err != nil {
		t.Fatal(err)
	}
	addrs, dbs := startReplicas(t, wp, 3)

	oracle, err := watch.NewSystem(wp, nil)
	if err != nil {
		t.Fatal(err)
	}
	// PU churn across the grid: weak and strong receivers on a few
	// channels, replicated to every PIR server and to the oracle.
	updates := []pir.Update{
		{PUID: "tv-1", Block: 17, Channel: 3, SignalUnits: wp.Quantize(wp.SMinPUmW)},
		{PUID: "tv-2", Block: 250, Channel: 42, SignalUnits: wp.Quantize(1e-4)},
		{PUID: "tv-3", Block: 599, Channel: 99, SignalUnits: wp.Quantize(wp.SMinPUmW)},
		{PUID: "tv-4", Block: 301, Channel: 3, SignalUnits: wp.Quantize(5e-5)},
	}
	for i := range updates {
		u := &updates[i]
		for _, db := range dbs {
			if err := db.ApplyUpdate(u); err != nil {
				t.Fatal(err)
			}
		}
		reg := watch.Registration{Block: u.Block, Channel: u.Channel, SignalUnits: u.SignalUnits}
		if err := oracle.UpdatePU(u.PUID, reg); err != nil {
			t.Fatal(err)
		}
	}

	opts, err := cfg.RPC.Options()
	if err != nil {
		t.Fatal(err)
	}
	c, err := node.DialPIRWith(opts, 3, addrs...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m := c.Meta()
	if m.Blocks != 600 || m.Channels != 100 {
		t.Fatalf("geometry %dx%d, want 600x100", m.Blocks, m.Channels)
	}
	// Full-grid sweep: every (block, channel) bit vs the oracle.
	for b := 0; b < m.Blocks; b++ {
		row, _, err := c.Fetch(context.Background(), pir.TableBitmap, geo.BlockID(b))
		if err != nil {
			t.Fatalf("fetch block %d: %v", b, err)
		}
		for ch := 0; ch < m.Channels; ch++ {
			max, err := oracle.MaxEIRPUnits(ch, geo.BlockID(b))
			if err != nil {
				t.Fatal(err)
			}
			if got, want := pir.BitmapHas(row, ch), max >= m.MinEIRPUnits; got != want {
				t.Fatalf("block %d channel %d: PIR says available=%v, oracle max %d vs threshold %d",
					b, ch, got, max, m.MinEIRPUnits)
			}
		}
	}

	// The CLI itself must print the oracle's verdict.
	cfg.Backend = config.BackendPIR
	cfg.PIR.Addrs = addrs
	cfg.PIR.K = 3
	eirp := map[int]int64{3: wp.Quantize(100), 42: wp.Quantize(100), 99: wp.Quantize(100)}
	for _, b := range []geo.BlockID{0, 17, 250, 599} {
		var buf bytes.Buffer
		if err := runPIR(cfg, "bitmap", b, eirp, wp, &buf); err != nil {
			t.Fatalf("runPIR(block %d): %v", b, err)
		}
		for ch := range eirp {
			max, err := oracle.MaxEIRPUnits(ch, b)
			if err != nil {
				t.Fatal(err)
			}
			verdict := "OCCUPIED"
			if max >= m.MinEIRPUnits {
				verdict = "AVAILABLE"
			}
			line := fmt.Sprintf("channel %d: %s", ch, verdict)
			if !strings.Contains(buf.String(), line) {
				t.Errorf("block %d: CLI output missing %q:\n%s", b, line, buf.String())
			}
		}
	}
	// Bloom variant: compact rows may false-positive but never
	// false-negative — every oracle-available channel must read
	// AVAILABLE.
	var buf bytes.Buffer
	if err := runPIR(cfg, "bloom", 17, eirp, wp, &buf); err != nil {
		t.Fatalf("runPIR bloom: %v", err)
	}
	for ch := range eirp {
		max, err := oracle.MaxEIRPUnits(ch, 17)
		if err != nil {
			t.Fatal(err)
		}
		if max >= m.MinEIRPUnits {
			line := fmt.Sprintf("channel %d: AVAILABLE", ch)
			if !strings.Contains(buf.String(), line) {
				t.Errorf("bloom false negative on channel %d:\n%s", ch, buf.String())
			}
		}
	}
}

func TestRequestQuantisation(t *testing.T) {
	wp, err := config.Default().WatchParams()
	if err != nil {
		t.Fatal(err)
	}
	got, err := parseRequest("0=4000", wp)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != wp.Quantize(4000) {
		t.Errorf("4 W quantised to %d, want %d", got[0], wp.Quantize(4000))
	}
}
