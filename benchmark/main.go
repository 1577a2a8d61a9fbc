// Command benchmark is the repo's request-to-license benchmark: it
// builds real deployments from the public role constructors, drives
// four named workloads, times every request from the SU's first call
// to its verified license, checks every decision against a mirrored
// plaintext WATCH oracle, and prints every metric by name and unit.
// BENCHMARK.json at the repo root declares the metrics and their
// regression bounds; README.md in this directory says why each exists.
//
//	go run ./benchmark --workload fresh_full --seed 1 --seconds 20 --trace 0
//	go run ./benchmark --workload fresh_full --seed 1 --seconds 20 --trace 1
//	go run ./benchmark                # every workload, both passes
//	go run ./benchmark -repeat 10     # the set ten times, with spreads
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	traceOut string
	repeat   int
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run; empty runs every workload, untraced then traced")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the benchmark's own input generator")
	fs.Float64Var(&o.seconds, "seconds", defaultSeconds, "how long one run measures")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced pass")
	fs.StringVar(&o.traceOut, "trace-out", "", "span file of a traced run (default .bench_build/trace/<workload>.jsonl)")
	fs.IntVar(&o.repeat, "repeat", 1, "without -workload: run the whole set this many times and print medians and spreads")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var err error
	if o.workload == "" {
		err = runSet(o, stdout, stderr)
	} else {
		var prof profile
		if prof, err = benchProfile(); err == nil {
			err = runOne(prof, o, stdout, stderr)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

var errIncorrect = errors.New("run was not correct (failed requests or oracle mismatches)")

// runOne measures one workload once and prints the result line.
func runOne(prof profile, o options, stdout, stderr io.Writer) error {
	spec, ok := findWorkload(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	fmt.Fprintf(stderr, "benchmark: workload=%s profile=%s seed=%d seconds=%g trace=%d nproc=%d GOMAXPROCS=%d %s commit=%s\n",
		spec.name, prof.name, o.seed, o.seconds, o.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
	dur := time.Duration(o.seconds * float64(time.Second))
	pl := newPlan(spec, prof.params.Watch, max(prof.params.PackSlots(), 1), o.seed)

	var res result
	var err error
	if o.trace == 0 {
		res, err = measure(prof, spec, pl, dur)
	} else {
		out := o.traceOut
		if out == "" {
			out = filepath.Join(".bench_build", "trace", spec.name+".jsonl")
		}
		res, err = measureTraced(prof, spec, pl, dur, out)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// warmup is how long a deployment is driven before anything is timed.
func warmup(dur time.Duration) time.Duration {
	return min(max(dur/10, 200*time.Millisecond), 3*time.Second)
}

// check turns a phase that must not be reported into an error: a tail
// from too few samples, or a workload whose grants or denials died out.
func check(prof profile, ph *phase) error {
	if ph.firstErr != nil {
		return nil // reported as failed requests, with correct=false
	}
	if n := len(ph.latMs); n < prof.minSamples {
		return fmt.Errorf("under-sampled: %d requests, need %d", n, prof.minSamples)
	}
	if g := ratio(float64(ph.grants), float64(len(ph.latMs))); g < 0.2 || g > 0.8 {
		return fmt.Errorf("grant share %.2f outside [0.2, 0.8]: one outcome path is nearly dead", g)
	}
	return nil
}

// measure is the untraced run: set up (several times, for a steady
// setup_s), prime, warm up, then drive for dur with no decorator
// installed anywhere, all of it beside the yardstick the reported times
// are held against. It is always a closed loop: on this kind of host
// an open loop's idle gaps make even the CPU time per request swing by
// a fifth between runs of one seed, which no regression bound survives.
// The open-loop workload shows its queueing in the traced run instead.
func measure(prof profile, spec workloadSpec, pl *plan, dur time.Duration) (result, error) {
	y := startYardstick()
	defer y.close()
	var r *runner
	var setups []stretch
	for i := 0; i < prof.setups; i++ {
		if r != nil {
			r.close()
		}
		start := time.Now()
		var err error
		if r, err = setup(prof, spec, pl, nil); err != nil {
			return result{}, err
		}
		setups = append(setups, stretch{start, time.Now()})
	}
	defer r.close()
	if err := r.prime(); err != nil {
		return result{}, err
	}
	r.drive("warmup", warmup(dur), true)
	ph := r.drive("measure", dur, true)
	if ph.firstErr != nil {
		fmt.Fprintln(os.Stderr, "benchmark: first failure:", ph.firstErr)
	}
	if err := check(prof, ph); err != nil {
		return result{}, err
	}
	return newResult(endToEnd, endToEndValues(setups, ph, y), ph), nil
}

// measureTraced is the per-layer run: the same deployment with the
// decorators of trace.go installed, driven first with them switched off
// (the reference for tracing overhead) and then with them recording.
func measureTraced(prof profile, spec workloadSpec, pl *plan, dur time.Duration, spanFile string) (result, error) {
	tr := newTracer()
	r, err := setup(prof, spec, pl, tr)
	if err != nil {
		return result{}, err
	}
	defer r.close()
	if err := r.prime(); err != nil {
		return result{}, err
	}
	r.drive("warmup", warmup(dur), false)
	ref := r.drive("reference", dur/4, false)
	before := readCounters(r.dep)
	tr.on.Store(true)
	traced := r.drive("traced", dur*3/4, false)
	tr.on.Store(false)
	after := readCounters(r.dep)
	// The sample floor and the outcome mix are properties of the run, so
	// both segments count towards them.
	both := &phase{}
	both.merge(ref)
	both.merge(traced)
	if both.firstErr != nil {
		fmt.Fprintln(os.Stderr, "benchmark: first failure:", both.firstErr)
	}
	if err := check(prof, both); err != nil {
		return result{}, err
	}
	micro, err := microbench(prof.params, r.dep.group, prof.microCalls)
	if err != nil {
		return result{}, err
	}
	spans := tr.finished()
	if err := writeSpans(spanFile, spans); err != nil {
		return result{}, err
	}
	var stpEx []exchange
	if m := r.dep.stpWire; m != nil {
		m.mu.Lock()
		stpEx = m.exchanges
		m.mu.Unlock()
	}
	values := perLayerValues(prof.params, spans, stpEx, before, after, ref, traced, micro)
	if v := values["trace.overhead_share"]; v > 0.05 {
		fmt.Fprintf(os.Stderr, "benchmark: traced pass does not close: overhead share %.3f > 0.05\n", v)
	}
	if v := values["trace.unattributed_share"]; v > 0.10 {
		fmt.Fprintf(os.Stderr, "benchmark: traced pass does not close: unattributed share %.3f > 0.10\n", v)
	}
	return newResult(perLayer, values, ref, traced), nil
}

// --- the whole set ---------------------------------------------------------

// manifest is BENCHMARK.json as the driver reads it. The set mode takes
// the regression bounds from it; the smoke test holds the rest against
// the program's own declarations.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// runSet runs every workload, untraced then traced, each in a child
// process of its own so setup_s and peak_rss_mb are that workload's,
// o.repeat times over seeds seed, seed+1, ... With one repetition it
// prints every metric; with more it prints, per workload and metric,
// the median, the quartile spread as a share of the median, and whether
// that spread fits inside the metric's regression bound.
func runSet(o options, stdout, stderr io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	bounds := map[string]float64{}
	if raw, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var m manifest
		if err := json.Unmarshal(raw, &m); err != nil {
			return fmt.Errorf("BENCHMARK.json: %w", err)
		}
		for _, e := range m.EndToEnd {
			bounds[e.Name] = e.Bound
		}
	}
	type key struct{ workload, metric string }
	values := map[key][]float64{}
	units := map[string]string{}
	var failed []string
	for rep := 0; rep < o.repeat; rep++ {
		for _, w := range workloads {
			for trace := 0; trace <= 1; trace++ {
				args := []string{"--workload", w.name, "--seed", fmt.Sprint(o.seed + int64(rep)),
					"--seconds", fmt.Sprint(o.seconds), "--trace", fmt.Sprint(trace)}
				cmd := exec.Command(exe, args...)
				cmd.Stderr = stderr
				out, runErr := cmd.Output()
				lines := strings.Split(strings.TrimSpace(string(out)), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					return fmt.Errorf("%s trace=%d: no result (%v)", w.name, trace, runErr)
				}
				if runErr != nil || !res.Correct {
					failed = append(failed, fmt.Sprintf("%s seed=%d trace=%d", w.name, o.seed+int64(rep), trace))
				}
				for name, v := range res.Metrics {
					values[key{w.name, name}] = append(values[key{w.name, name}], v.Value)
					units[name] = v.Unit
				}
			}
		}
	}
	for _, w := range workloads {
		fmt.Fprintf(stdout, "\n== %s: %s\n", w.name, w.why)
		for _, d := range append(append([]metricDecl(nil), endToEnd...), perLayer...) {
			vs := values[key{w.name, d.name}]
			if o.repeat < 2 {
				fmt.Fprintf(stdout, "%-31s %14.4f %s\n", d.name, vs[0], units[d.name])
				continue
			}
			q := quartiles(vs)
			spread := ratio(q[2]-q[0], q[1])
			verdict := ""
			if b, ok := bounds[d.name]; ok {
				verdict = fmt.Sprintf("bound %.2f fits=%v", b, spread <= b)
			}
			fmt.Fprintf(stdout, "%-31s median %14.4f %-5s q1 %14.4f q3 %14.4f spread %.4f %s\n",
				d.name, q[1], units[d.name], q[0], q[2], spread, verdict)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("incorrect runs: %s", strings.Join(failed, "; "))
	}
	return nil
}

// quartiles are the three cut points Python's
// statistics.quantiles(values, n=4) gives (the exclusive method), which
// is how the benchmark's acceptance rule measures spread.
func quartiles(values []float64) [3]float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	var q [3]float64
	m := len(s)
	for i := 1; i <= 3; i++ {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}
