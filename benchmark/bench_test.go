package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"pisa/internal/geo"
	"pisa/internal/pisa"
)

// testProfile is the smoke scale: 576-bit keys (k = 3 slots), two
// channels, a 12 x 2 grid. It exists only here; no flag reaches it.
func testProfile(t *testing.T) profile {
	t.Helper()
	grid, err := geo.NewGrid(12, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	p := pisa.Params{
		Watch:         watchParams(2, grid),
		PaillierBits:  576,
		PlaintextBits: 60,
		AlphaBits:     100,
		BetaBits:      80,
		EtaBits:       144,
		SignerBits:    512,
		Parallelism:   -1,
		FastExp:       true,
		Packing:       true,
		CacheEntries:  256,
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return profile{name: "smoke", params: p, setups: 1, minSamples: 10, microCalls: 5, scratch: t.TempDir()}
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatchesProgram holds BENCHMARK.json and the program's own
// declarations together: same command, workloads, run length, metric
// names and units.
func TestManifestMatchesProgram(t *testing.T) {
	m := readManifest(t)
	if want := []string{"go", "run", "./benchmark"}; !reflect.DeepEqual(m.Command, want) {
		t.Errorf("command %v, want %v", m.Command, want)
	}
	if want := []string{"benchmark"}; !reflect.DeepEqual(m.Paths, want) {
		t.Errorf("paths %v, want %v", m.Paths, want)
	}
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", m.RunSeconds, defaultSeconds)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, program has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest %+v, program %q: %q", i, m.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	var e2e, layer []metricDecl
	sawSetup := false
	for _, d := range m.EndToEnd {
		e2e = append(e2e, metricDecl{d.Name, d.Unit})
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better=%q", d.Name, d.Better)
		}
		sawSetup = sawSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	for _, d := range m.PerLayer {
		layer = append(layer, metricDecl{d.Name, d.Unit})
	}
	if !sawSetup {
		t.Error("no setup_s metric in seconds with better=lower")
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end %v, program %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("per_layer %v, program %v", layer, perLayer)
	}
}

func checkResult(t *testing.T, res result, decls []metricDecl, nonZero bool) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(decls) {
		t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(decls))
	}
	for _, d := range decls {
		v, ok := res.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("%s missing", d.name)
		case v.Unit != d.unit:
			t.Errorf("%s: unit %q, want %q", d.name, v.Unit, d.unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s: %v is not finite", d.name, v.Value)
		case nonZero && v.Value <= 0:
			t.Errorf("%s: %v, end-to-end metrics are never 0", d.name, v.Value)
		}
	}
}

// TestWorkloadsSmoke runs every workload briefly, untraced then traced,
// and checks both outputs against the declared metrics and the span
// file against the self-time invariants.
func TestWorkloadsSmoke(t *testing.T) {
	prof := testProfile(t)
	for _, spec := range workloads {
		t.Run(spec.name, func(t *testing.T) {
			if spec.openRate > 0 {
				spec.openRate = 150 // enough arrivals in a sub-second run
			}
			pl := newPlan(spec, prof.params.Watch, prof.params.PackSlots(), 1)
			res, err := measure(prof, spec, pl, 250*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, endToEnd, true)

			spanFile := filepath.Join(t.TempDir(), "spans.jsonl")
			res, err = measureTraced(prof, spec, pl, 500*time.Millisecond, spanFile)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, perLayer, false)
			for _, name := range []string{"stp.convert_ms_p50", "sdc.self_ms_p50", "su.open_ms_p50", "traced.request_ms_p50", "request_samples"} {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v on a workload that exercises it", name, res.Metrics[name].Value)
				}
			}
			if wired := spec.topo != topoMono; wired != (res.Metrics["su_wire_bytes_per_request"].Value > 0) {
				t.Errorf("su_wire_bytes_per_request = %v with sockets=%v", res.Metrics["su_wire_bytes_per_request"].Value, wired)
			}
			if churn := spec.churnRate > 0; churn != (res.Metrics["store.appends"].Value > 0) {
				t.Errorf("store.appends = %v with churn=%v", res.Metrics["store.appends"].Value, churn)
			}
			checkSpans(t, spanFile)
		})
	}
}

// checkSpans reads a span file back: self times are never negative and
// the blocking path of a request never exceeds the request.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	tree := newSpanTree(spans)
	roots := 0
	for i, s := range spans {
		if s.EndNs < s.StartNs {
			t.Errorf("span %d ends before it starts", s.ID)
		}
		if self := tree.selfNs(i); self < 0 {
			t.Errorf("span %d (%s): self time %d ns", s.ID, s.Name, self)
		}
		if s.Parent == 0 {
			roots++
			if b, d := tree.blockingNs(i), s.EndNs-s.StartNs; b > d {
				t.Errorf("request %s: blocking path %d ns exceeds its %d ns", s.Request, b, d)
			}
		} else if _, ok := tree.byID[s.Parent]; !ok {
			t.Errorf("span %d (%s): parent %d not in the file", s.ID, s.Name, s.Parent)
		}
	}
	if roots == 0 {
		t.Error("no request spans recorded")
	}
}

// TestGeneratorDeterministic pins the generator: one seed, one input.
func TestGeneratorDeterministic(t *testing.T) {
	prof := testProfile(t)
	pinned := map[string]string{
		"fresh_full":      "02dff302f98c7da11e08c250b639e6f0c94e9c793c11184a96eea994a4c95fdf",
		"repeat_band_tcp": "11765a3e34dcf3bab3248bccf563f4b8a5a07eb9c9b3460bd6abd153e2f93992",
		"sharded_mix_tcp": "c9d402a70f71dc48e4aaf85cf1aa35ccfcc27079ba1edef0a1d09863299ae13a",
		"churn_rw":        "b0fd3c2a6e73737b760a17f2dc2803a9c2e518baca0d6945ba6e4fe463b504d2",
	}
	for _, spec := range workloads {
		one := newPlan(spec, prof.params.Watch, prof.params.PackSlots(), 1).digest()
		if again := newPlan(spec, prof.params.Watch, prof.params.PackSlots(), 1).digest(); again != one {
			t.Errorf("%s: seed 1 gave %s then %s", spec.name, one, again)
		}
		if one != pinned[spec.name] {
			t.Errorf("%s: seed 1 digest %s, pinned %s", spec.name, one, pinned[spec.name])
		}
		if two := newPlan(spec, prof.params.Watch, prof.params.PackSlots(), 2).digest(); two == one {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs", spec.name)
		}
	}
}

func TestSelfTimeAndBlockingPath(t *testing.T) {
	spans := []span{
		{ID: 1, Request: "r", Layer: layerHarness, Name: "request", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Request: "r", Layer: layerSU, Name: "su.prepare", StartNs: 5, EndNs: 15},
		{ID: 3, Parent: 1, Request: "r", Layer: layerRouter, Name: "router.process", StartNs: 20, EndNs: 90},
		// Two shard calls in parallel: only the later-finishing one is
		// on the blocking path, and their union covers 25..85.
		{ID: 4, Parent: 3, Request: "r", Layer: layerWire, Name: "shard0.call", StartNs: 25, EndNs: 70},
		{ID: 5, Parent: 3, Request: "r", Layer: layerWire, Name: "shard1.call", StartNs: 30, EndNs: 85},
		{ID: 6, Parent: 5, Request: "r", Layer: layerSDC, Name: "sdc1.process", StartNs: 35, EndNs: 80},
	}
	tree := newSpanTree(spans)
	wantSelf := []int64{20, 10, 10, 45, 10, 45}
	for i, want := range wantSelf {
		if got := tree.selfNs(i); got != want {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got, want)
		}
	}
	// prepare 10 + router 10 + shard1.call 10 + sdc1 45; the root's own
	// 20 ns and shard0's head start are unattributed.
	if got := tree.blockingNs(0); got != 75 {
		t.Errorf("blocking path = %d, want 75", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, ..., 10], n=4) == [2.75, 5.5, 8.25]
	got := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if want := [3]float64{2.75, 5.5, 8.25}; got != want {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
}

// TestYardstickOver holds a stretch against the samples taken inside it,
// and a stretch too short to hold one against the whole run's.
func TestYardstickOver(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	y := &yardstick{samples: []refSample{{at(0), refNominal}, {at(200), 2 * refNominal}, {at(400), 4 * refNominal}}}
	if scale, used := y.over(stretch{at(100), at(500)}); math.Abs(scale-1.0/3) > 1e-12 || math.Abs(used-6*refNominal) > 1e-12 {
		t.Errorf("over two samples: scale %v used %v, want 1/3 and %v", scale, used, 6*refNominal)
	}
	if scale, used := y.over(stretch{at(250), at(350)}); math.Abs(scale-3.0/7) > 1e-12 || used != 0 {
		t.Errorf("over no sample: scale %v used %v, want 3/7 and 0", scale, used)
	}
}
