package main

import (
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pisa/internal/config"
	"pisa/internal/node"
	"pisa/internal/pisa"
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
	// An STP takes one address too: STP replica groups were removed.
	err = run([]string{"-stp", "127.0.0.1:1,127.0.0.1:2", "-id", "su-1", "-block", "3", "-request", "1=5"})
	if err == nil || !strings.Contains(err.Error(), "-stp takes one STP address") {
		t.Errorf("-stp 127.0.0.1:1,127.0.0.1:2: %v, want a refusal naming -stp and STP replica groups", err)
	}
}

// TestRunPIRFlagValidation: suctl speaks PISA only. The networked PIR
// backend's flags are unknown; the PIR comparison is
// pisaload -backend pir, in process.
func TestRunPIRFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-backend", "pir"},
		{"-pir", "127.0.0.1:7420,127.0.0.1:7421"},
		{"-k", "2"},
		{"-table", "bloom"},
	} {
		err := run(append(args, "-id", "su-1", "-block", "3", "-request", "1=5"))
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+args[0]) {
			t.Errorf("%v: %v, want an unknown-flag refusal", args, err)
		}
	}
}

// TestRunEndToEnd drives the whole CLI against in-process servers.
func TestRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spins real servers")
	}
	cfg := config.Default()
	testKeys(&cfg)
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

// testKeys sets test-size crypto widths: config.Default() carries the
// paper's 2048-bit keys.
func testKeys(cfg *config.File) {
	cfg.PaillierBits, cfg.PlaintextBits, cfg.SignerBits = 768, 60, 512
	cfg.AlphaBits, cfg.BetaBits, cfg.EtaBits = 128, 64, 64
}
