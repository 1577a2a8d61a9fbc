package main

import (
	"strings"
	"testing"

	"pisa/internal/bench"
)

func TestRunRequiresExperimentSelection(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("no-flag invocation accepted")
	}
}

func TestRunCheapExperiments(t *testing.T) {
	// table1 and sizes are analytic — they must run instantly and
	// without error.
	if err := run([]string{"-table1", "-sizes"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs crypto")
	}
	if err := run([]string{"-ablation"}); err != nil {
		t.Fatalf("run -ablation: %v", err)
	}
}

func TestRunFHE(t *testing.T) {
	if testing.Short() {
		t.Skip("runs crypto")
	}
	if err := run([]string{"-fhe", "-iters", "2"}); err != nil {
		t.Fatalf("run -fhe: %v", err)
	}
}

func TestRunTable2SmallKey(t *testing.T) {
	if testing.Short() {
		t.Skip("runs crypto")
	}
	if err := run([]string{"-table2", "-bits", "256", "-iters", "2"}); err != nil {
		t.Fatalf("run -table2: %v", err)
	}
}

// TestFigure6AgreesWithOracle runs -figure6's measurement at a small
// shape for a request the plaintext WATCH oracle denies (half the SU's
// 4 W cap, in the block of a PU on the same channel) and one it grants
// (the same request under a 100 mW cap): each license verdict must be
// the oracle's.
func TestFigure6AgreesWithOracle(t *testing.T) {
	for _, tc := range []struct {
		maxEIRPmW float64
		grant     bool
	}{{4000, false}, {100, true}} {
		params, err := bench.SmallParams(2, 3, 2, 576)
		if err != nil {
			t.Fatal(err)
		}
		params.Watch.SUMaxEIRPmW = tc.maxEIRPmW
		stats, err := runFigure6(params)
		if err != nil {
			t.Fatalf("cap %g mW: %v", tc.maxEIRPmW, err)
		}
		if stats.OracleGranted != tc.grant {
			t.Errorf("cap %g mW: oracle granted = %v, want %v", tc.maxEIRPmW, stats.OracleGranted, tc.grant)
		}
		if stats.Granted != stats.OracleGranted {
			t.Errorf("cap %g mW: license granted = %v, oracle %v", tc.maxEIRPmW, stats.Granted, stats.OracleGranted)
		}
	}
}

// TestRunRejectsRemovedFlags: the JSON micro-benchmark report, its
// shard sweep, the nonce-table switches, the worker count, the decision
// cache, the reduced-scale switch and the worker-count sweep are gone,
// and asking for them says so instead of running something else.
func TestRunRejectsRemovedFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-json", "x"}, {"-table1", "-shards", "1,2"},
		{"-table1", "-engine=false"}, {"-table1", "-window", "4"}, {"-table1", "-shortbits", "128"},
		{"-table1", "-parallel", "2"},
		{"-figure6", "-cache", "16"}, {"-figure6", "-paper"}, {"-sweep"},
	} {
		err := run(args)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("run %v: error = %v, want an unknown-flag refusal", args, err)
		}
	}
}
