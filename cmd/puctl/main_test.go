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

func TestRunFlagValidation(t *testing.T) {
	cases := [][]string{
		{},
		{"-id", "tv-1"},                // no block
		{"-id", "tv-1", "-block", "3"}, // no channel/off
		{"-id", "tv-1", "-block", "3", "-channel", "1"}, // no signal
		{"-block", "3", "-off"},                         // no id
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
	// An SDC takes one address: a list is refused by name before any
	// dial, not by the dial that follows.
	err := run([]string{"-sdc", "a:1,b:2", "-id", "tv-1", "-block", "3", "-off"})
	if err == nil || !strings.Contains(err.Error(), "-sdc") || !strings.Contains(err.Error(), "replica") {
		t.Errorf("-sdc a:1,b:2: %v, want a refusal naming -sdc and replica groups", err)
	}
	// An STP takes one address too: STP replica groups were removed.
	err = run([]string{"-stp", "127.0.0.1:1,127.0.0.1:2", "-id", "tv-1", "-block", "3", "-off"})
	if err == nil || !strings.Contains(err.Error(), "-stp takes one STP address") {
		t.Errorf("-stp 127.0.0.1:1,127.0.0.1:2: %v, want a refusal naming -stp and STP replica groups", err)
	}
}

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

	// Tune in...
	err = run([]string{
		"-config", cfgPath,
		"-id", "cli-tv", "-block", "8", "-channel", "1", "-signal-mw", "1e-4",
	})
	if err != nil {
		t.Fatalf("puctl tune: %v", err)
	}
	// ...switch channel...
	err = run([]string{
		"-config", cfgPath,
		"-id", "cli-tv", "-block", "8", "-channel", "2", "-signal-mw", "1e-4",
	})
	if err != nil {
		t.Fatalf("puctl switch: %v", err)
	}
	// ...and off.
	err = run([]string{
		"-config", cfgPath,
		"-id", "cli-tv", "-block", "8", "-off",
	})
	if err != nil {
		t.Fatalf("puctl off: %v", err)
	}
	// Moving the receiver must be rejected by the SDC and surface
	// as a CLI error.
	err = run([]string{
		"-config", cfgPath,
		"-id", "cli-tv", "-block", "9", "-channel", "1", "-signal-mw", "1e-4",
	})
	if err == nil {
		t.Fatal("puctl accepted a moved receiver")
	}
}

// testKeys sets test-size crypto widths: config.Default() carries the
// paper's 2048-bit keys.
func testKeys(cfg *config.File) {
	cfg.PaillierBits, cfg.PlaintextBits, cfg.SignerBits = 768, 60, 512
	cfg.AlphaBits, cfg.BetaBits, cfg.EtaBits = 128, 64, 64
}
