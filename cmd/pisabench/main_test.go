package main

import (
	"strings"
	"testing"
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

// TestRunFigure6AndSweep drives MeasureFigure6 through the CLI's scale
// selection and engine/cache flags, once per experiment that calls it.
func TestRunFigure6AndSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 2048-bit deployments")
	}
	if err := run([]string{"-figure6", "-parallel", "2", "-cache", "16"}); err != nil {
		t.Fatalf("run -figure6: %v", err)
	}
	if err := run([]string{"-sweep"}); err != nil {
		t.Fatalf("run -sweep: %v", err)
	}
}

// TestRunRejectsRemovedFlags: the JSON micro-benchmark report and its
// shard sweep are gone, and asking for them says so instead of running
// something else.
func TestRunRejectsRemovedFlags(t *testing.T) {
	for _, args := range [][]string{{"-json", "x"}, {"-table1", "-shards", "1,2"}} {
		err := run(args)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("run %v: error = %v, want an unknown-flag refusal", args, err)
		}
	}
}

func TestFigureScale(t *testing.T) {
	c, cols, rows, bits := figureScale(options{})
	if c*cols*rows >= 100*600 {
		t.Error("default scale not reduced")
	}
	if bits != 2048 {
		t.Errorf("default bits = %d, want the paper's 2048", bits)
	}
	c, cols, rows, bits = figureScale(options{paper: true})
	if c != 100 || cols*rows != 600 || bits != 2048 {
		t.Errorf("paper scale = C=%d B=%d n=%d", c, cols*rows, bits)
	}
}
