package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestMeasureMicro exercises the -json harness end to end at a small
// key size: both engine states measured for every op, speedups
// computed, and the report round-trips through JSON.
func TestMeasureMicro(t *testing.T) {
	report, err := MeasureMicro(768, 0, 0, 2, 2)
	if err != nil {
		t.Fatalf("MeasureMicro: %v", err)
	}
	wantOps := []string{"encrypt", "newNonce", "rerandomize", "nonceBatch32", "decryptShort", "decryptContinued", "scalarMul100"}
	if got, want := len(report.Results), 2*len(wantOps); got != want {
		t.Fatalf("got %d rows, want %d", got, want)
	}
	seen := make(map[string]int)
	for _, r := range report.Results {
		seen[r.Op]++
		if r.NsPerOp <= 0 {
			t.Errorf("%s engine=%v: non-positive ns/op %d", r.Op, r.Engine, r.NsPerOp)
		}
	}
	for _, op := range wantOps {
		if seen[op] != 2 {
			t.Errorf("op %q measured %d times, want 2 (engine off + on)", op, seen[op])
		}
	}
	for _, op := range []string{"encrypt", "newNonce", "rerandomize", "nonceBatch32"} {
		if _, ok := report.Speedup[op]; !ok {
			t.Errorf("no speedup recorded for %q", op)
		}
	}
	if report.TableBytes <= 0 {
		t.Errorf("table size %d, want positive", report.TableBytes)
	}

	path := filepath.Join(t.TempDir(), "bench.json")
	if err := report.WriteJSON(path); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back MicroReport
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	if len(back.Results) != len(report.Results) || back.Bits != 768 {
		t.Fatalf("round-trip mismatch: %d rows, bits %d", len(back.Results), back.Bits)
	}
}

// TestMeasureMicroRejectsBadIters covers the argument guard.
func TestMeasureMicroRejectsBadIters(t *testing.T) {
	if _, err := MeasureMicro(768, 0, 0, 0, 1); err == nil {
		t.Fatal("MeasureMicro accepted iters=0")
	}
}
