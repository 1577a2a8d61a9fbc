// Command pisabench regenerates every table and figure of the
// paper's evaluation section (§VI) on this machine:
//
//	pisabench -table1          # echo the parameter settings (Table I)
//	pisabench -table2          # Paillier micro-benchmark (Table II)
//	pisabench -figure6         # request/update costs (Figure 6)
//	pisabench -tradeoff        # location privacy vs time (§VI-A)
//	pisabench -sizes           # message sizes at paper scale
//	pisabench -fhe             # generic-FHE baseline (DGHV)
//	pisabench -ablation        # bit-wise comparison vs blinded sign test
//	pisabench -sweep           # homomorphic-kernel worker-count sweep
//	pisabench -all             # everything (except the sweep)
//
// That is its whole job: the paper's own tables. End-to-end and
// per-layer cost of the deployment as it ships is `go run ./benchmark`;
// scenario load, SLOs and the PIR backend are cmd/pisaload; single
// kernels are the per-package `go test -bench` files.
//
// Any run may add -metrics-dump PATH ("-" for stdout) to write the
// instrumentation the experiments accumulated (per-stage histograms,
// pool gauges — the same registry the daemons serve on /metrics) in
// Prometheus text format.
//
// By default the end-to-end pipeline is measured at a reduced matrix
// scale and extrapolated (the pipeline is exactly linear in matrix
// cells); -paper runs the full 100x600 grid with 2048-bit keys, which
// takes minutes per stage — the very cost the paper reports.
//
// -parallel N bounds the worker pool of every homomorphic kernel
// (0 serial, -1 one worker per CPU); -sweep re-measures the request
// pipeline at doubling worker counts up to the CPU count.
//
// -cache N arms the SDC's encrypted-decision cache (DESIGN.md §14) in
// the end-to-end experiments; it defaults to off so repeated
// measurements stay cold. Every key tables its nonce base on its first
// nonce (DESIGN.md §10); there is no engine switch.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"pisa/internal/bench"
	"pisa/internal/config"
	"pisa/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pisabench:", err)
		os.Exit(1)
	}
}

type options struct {
	table1, table2, figure6, tradeoff, sizes, fhe, ablation bool
	sweep                                                   bool
	paper                                                   bool
	bits                                                    int
	iters                                                   int
	parallel                                                int
	cache                                                   string
	cacheEntries                                            int
	metricsDump                                             string
}

func run(args []string) error {
	fs := flag.NewFlagSet("pisabench", flag.ContinueOnError)
	var opt options
	all := fs.Bool("all", false, "run every experiment")
	fs.BoolVar(&opt.table1, "table1", false, "print Table I parameter settings")
	fs.BoolVar(&opt.table2, "table2", false, "run the Paillier benchmark (Table II)")
	fs.BoolVar(&opt.figure6, "figure6", false, "run the system evaluation (Figure 6)")
	fs.BoolVar(&opt.tradeoff, "tradeoff", false, "run the privacy/time trade-off sweep")
	fs.BoolVar(&opt.sizes, "sizes", false, "print message sizes at paper scale")
	fs.BoolVar(&opt.fhe, "fhe", false, "run the generic-FHE (DGHV) baseline")
	fs.BoolVar(&opt.ablation, "ablation", false, "run the secure-comparison ablation")
	fs.BoolVar(&opt.sweep, "sweep", false, "sweep homomorphic worker counts over the request pipeline")
	fs.BoolVar(&opt.paper, "paper", false, "measure at full paper scale (very slow)")
	fs.IntVar(&opt.bits, "bits", 2048, "Paillier modulus bits for Table II")
	fs.IntVar(&opt.iters, "iters", 30, "iterations per Table II measurement (paper uses 30)")
	fs.IntVar(&opt.parallel, "parallel", 0,
		"homomorphic kernel workers: 0 serial, -1 one per CPU, N literal")
	fs.StringVar(&opt.cache, "cache", "off",
		"decision cache in end-to-end experiments: entry count or 'off' (default off so repeated "+
			"measurements stay cold)")
	fs.StringVar(&opt.metricsDump, "metrics-dump", "",
		"after the experiments, dump the obs registry in Prometheus text format to this path (\"-\" = stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	entries, err := config.ParseCacheFlag(opt.cache)
	if err != nil {
		return err
	}
	opt.cacheEntries = entries
	if *all {
		opt.table1, opt.table2, opt.figure6 = true, true, true
		opt.tradeoff, opt.sizes, opt.fhe, opt.ablation = true, true, true, true
	}
	if !(opt.table1 || opt.table2 || opt.figure6 || opt.tradeoff || opt.sizes || opt.fhe || opt.ablation || opt.sweep) {
		fs.Usage()
		return fmt.Errorf("select at least one experiment (or -all)")
	}
	if opt.table1 {
		printTable1()
	}
	if opt.table2 {
		if err := runTable2(opt); err != nil {
			return err
		}
	}
	if opt.sizes {
		runSizes()
	}
	if opt.figure6 {
		if err := runFigure6(opt); err != nil {
			return err
		}
	}
	if opt.tradeoff {
		if err := runTradeoff(opt); err != nil {
			return err
		}
	}
	if opt.fhe {
		if err := runFHE(opt); err != nil {
			return err
		}
	}
	if opt.ablation {
		if err := runAblation(); err != nil {
			return err
		}
	}
	if opt.sweep {
		if err := runParallelSweep(opt); err != nil {
			return err
		}
	}
	if opt.metricsDump != "" {
		if err := dumpMetrics(opt.metricsDump); err != nil {
			return err
		}
	}
	return nil
}

// dumpMetrics writes the instrumentation every experiment above
// accumulated — the same per-stage histograms and pool gauges the
// daemons serve on /metrics — so benchmark runs can be inspected with
// the Prometheus toolchain without running a daemon. The exposition
// is validated before it is written, so the CI smoke step fails on a
// malformed registry instead of shipping it.
func dumpMetrics(path string) error {
	var buf bytes.Buffer
	if err := obs.Default().WritePrometheus(&buf); err != nil {
		return err
	}
	if err := obs.ValidateExposition(buf.Bytes()); err != nil {
		return fmt.Errorf("metrics exposition does not validate: %w", err)
	}
	if path == "-" {
		_, err := os.Stdout.Write(buf.Bytes())
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

func printTable1() {
	c, b, bits := bench.PaperScaleParams()
	fmt.Println("Table I: Parameter Settings")
	fmt.Printf("  %-40s %d\n", "Number of PUs", 100)
	fmt.Printf("  %-40s %d\n", "Number of blocks", b)
	fmt.Printf("  %-40s %d\n", "Number of channels", c)
	fmt.Printf("  %-40s %d\n", "Bit length of integer representation", 60)
	fmt.Printf("  %-40s %d\n", "Paillier modulus bits", bits)
	fmt.Println()
}

func runTable2(opt options) error {
	fmt.Printf("Table II: Benchmark of Paillier cryptosystem (n is %d-bit, avg of %d)\n", opt.bits, opt.iters)
	fmt.Println("  generating key...")
	stats, err := bench.MeasurePaillier(opt.bits, opt.iters)
	if err != nil {
		return err
	}
	row := func(name string, v interface{}) { fmt.Printf("  %-40s %v\n", name, v) }
	row("Public key size (N, H)", fmt.Sprintf("%d bits", stats.PublicKeyBits))
	row("Secret key size (gob: p, q, a_p, a_q, H)", fmt.Sprintf("%d bits", stats.SecretKeyBits))
	row("Plaintext message size", fmt.Sprintf("%d bits", stats.PlaintextBits))
	row("Ciphertext size", fmt.Sprintf("%d bits", stats.CiphertextBits))
	row("Encryption", ms(stats.Encrypt))
	row("Encryption (fixed-base engine)", ms(stats.EncryptFast))
	row("Decryption", ms(stats.Decrypt))
	row("Homomorphic addition", ms(stats.Add))
	row("Homomorphic subtraction", ms(stats.Sub))
	row("Homomorphic scale (100-bit constant)", ms(stats.ScalarSmall))
	row("Homomorphic scale", ms(stats.ScalarFull))
	fmt.Println()
	return nil
}

func runSizes() {
	c, b, bits := bench.PaperScaleParams()
	s := bench.ComputeSizes(c, b, bits)
	fmt.Println("Message sizes at paper scale (C=100, B=600, n=2048):")
	fmt.Printf("  %-40s %.1f MB   (paper: ~29 MB)\n", "SU transmission request (k=1, paper)", float64(s.RequestBytes)/(1<<20))
	fmt.Printf("  %-40s %.1f MB   (%dx smaller, k=%d cells/ct)\n", "SU transmission request (packed)",
		float64(s.PackedRequestBytes)/(1<<20), s.RequestBytes/max(1, s.PackedRequestBytes), s.PackSlots)
	fmt.Printf("  %-40s %.2f MB  (paper: ~0.05 MB)\n", "PU channel update", float64(s.UpdateBytes)/(1<<20))
	fmt.Printf("  %-40s %.1f kb   (paper: ~4.1 kb)\n", "SDC response", float64(s.ResponseBytes*8)/1e3)
	fmt.Println()
}

// figureScale picks the measured matrix scale. The default keeps the
// paper's 2048-bit keys (so per-cell costs are directly comparable)
// and shrinks only the matrix, which the pipeline is linear in.
func figureScale(opt options) (channels, cols, rows, bits int) {
	if opt.paper {
		return 100, 30, 20, 2048
	}
	return 5, 4, 3, 2048
}

func runFigure6(opt options) error {
	channels, cols, rows, bits := figureScale(opt)
	cells := channels * cols * rows
	paperC, paperB, _ := bench.PaperScaleParams()
	paperCells := paperC * paperB

	fmt.Printf("Figure 6: System evaluation (measured at C=%d, B=%d, n=%d-bit)\n",
		channels, cols*rows, bits)
	params, err := bench.SmallParams(channels, cols, rows, bits)
	if err != nil {
		return err
	}
	params.Parallelism = opt.parallel
	params.CacheEntries = opt.cacheEntries
	fmt.Println("  setting up deployment (keys + initial budget encryption)...")
	u, err := bench.NewUniverse(params)
	if err != nil {
		return err
	}
	stats, err := u.MeasureFigure6()
	if err != nil {
		return err
	}
	report := func(name string, d time.Duration, perCellScale int, paperRef string) {
		extrap := bench.Extrapolate(d, perCellScale, paperCells)
		fmt.Printf("  %-34s measured %-12v -> paper scale est. %-12v (paper: %s)\n",
			name, d.Round(time.Microsecond), extrap.Round(100*time.Millisecond), paperRef)
	}
	report("SU request preparation", stats.Prepare, cells, "~221 s")
	report("SU request refresh (reuse)", stats.Refresh, cells, "~11 s")
	report("SDC-side request processing", stats.ProcessSDC, cells, "~219 s")
	report("STP sign conversion (excl. in paper)", stats.ProcessSTP, cells, "n/a")
	// The PU update cost scales with C, not C*B.
	extrapUpdate := bench.Extrapolate(stats.PUUpdate, channels, paperC)
	fmt.Printf("  %-34s measured %-12v -> paper scale est. %-12v (paper: ~2.6 s)\n",
		"PU update processing", stats.PUUpdate.Round(time.Microsecond),
		extrapUpdate.Round(time.Millisecond))
	fmt.Printf("  %-34s %d bytes\n", "request size at this scale", stats.RequestBytes)
	fmt.Println()
	return nil
}

func runTradeoff(opt options) error {
	channels, cols, rows, bits := 4, 6, 8, 1024
	if opt.paper {
		channels, cols, rows, bits = 100, 30, 20, 2048
	}
	fmt.Printf("Privacy/time trade-off (C=%d, full grid %dx%d, n=%d-bit):\n",
		channels, cols, rows, bits)
	params, err := bench.SmallParams(channels, cols, rows, bits)
	if err != nil {
		return err
	}
	params.Parallelism = opt.parallel
	params.CacheEntries = opt.cacheEntries
	u, err := bench.NewUniverse(params)
	if err != nil {
		return err
	}
	grid := params.Watch.Grid
	eirp := map[int]int64{0: params.Watch.Quantize(1)}
	fractions := []int{4, 2, 1} // quarter, half, full disclosure
	for _, f := range fractions {
		top := rows / f
		if top < 1 {
			top = 1
		}
		disclosure, err := grid.RowBand(0, top)
		if err != nil {
			return err
		}
		start := time.Now()
		req, err := u.SU.PrepareRequest(eirp, disclosure)
		if err != nil {
			return err
		}
		prep := time.Since(start)
		start = time.Now()
		if _, err := u.SDC.ProcessRequest(req); err != nil {
			return err
		}
		proc := time.Since(start)
		fmt.Printf("  disclosed %3d/%3d blocks: prepare %-12v process %-12v (%d ciphertexts)\n",
			len(disclosure.Blocks), grid.Blocks(), prep.Round(time.Millisecond),
			proc.Round(time.Millisecond), req.Ciphertexts())
	}
	fmt.Println("  (times scale linearly with disclosed blocks, as §VI-A describes)")
	fmt.Println()
	return nil
}

func runFHE(opt options) error {
	fmt.Println("Generic-FHE baseline (DGHV over the integers, toy parameters):")
	stats, err := bench.MeasureFHE(opt.iters)
	if err != nil {
		return err
	}
	fmt.Printf("  parameters: rho=%d eta=%d gamma=%d (ciphertext %d bytes/bit)\n",
		stats.Params.Rho, stats.Params.Eta, stats.Params.Gamma, stats.CiphertextBytes)
	fmt.Printf("  %-40s %v\n", "Encrypt one bit", ms(stats.Encrypt))
	fmt.Printf("  %-40s %v\n", "Homomorphic XOR", ms(stats.Xor))
	fmt.Printf("  %-40s %v\n", "Homomorphic AND", ms(stats.And))
	fmt.Printf("  %-40s %v (%d AND, %d XOR gates)\n", "8-bit encrypted comparison",
		ms(stats.Compare8), stats.Gates.And, stats.Gates.Xor)
	c, b, _ := bench.PaperScaleParams()
	perRequest := time.Duration(c*b) * stats.Compare8 * 60 / 8 // 60-bit compares
	fmt.Printf("  extrapolated: %d cells x 60-bit compares/request = %v per request\n",
		c*b, perRequest.Round(time.Second))
	fmt.Println("  (secure DGHV parameters are orders of magnitude larger still;")
	fmt.Println("   60-bit comparators need ~13000-bit noise headroom — see EXPERIMENTS.md)")
	fmt.Println()
	return nil
}

func runAblation() error {
	fmt.Println("Ablation: bit-wise secure comparison vs PISA's blinded sign test")
	stats, err := bench.MeasureAblation(1024, 16)
	if err != nil {
		return err
	}
	fmt.Printf("  %-44s %v (%d rounds, %d hom ops, %d cts/value)\n",
		fmt.Sprintf("bit-wise comparison (%d-bit values)", stats.Width),
		stats.BitwiseTime.Round(time.Microsecond), stats.BitwiseRounds,
		stats.BitwiseHomOps, stats.BitwiseCiphertexts)
	fmt.Printf("  %-44s %v (%d round, 1 ct/value)\n",
		"PISA blinded sign test (per cell)",
		stats.PISATime.Round(time.Microsecond), stats.PISARounds)
	fmt.Printf("  speedup: %.1fx per comparison, and PISA batches all cells into one round trip\n",
		float64(stats.BitwiseTime)/float64(stats.PISATime))
	fmt.Println()
	return nil
}

// sweepWorkerCounts doubles from 1 up to the CPU count (always
// including both endpoints).
func sweepWorkerCounts() []int {
	max := runtime.GOMAXPROCS(0)
	counts := []int{1}
	for w := 2; w < max; w *= 2 {
		counts = append(counts, w)
	}
	if max > 1 {
		counts = append(counts, max)
	}
	return counts
}

// runParallelSweep re-measures the request pipeline (fresh prepare,
// SDC processing, PU update) on one deployment at each worker count,
// reporting the speedup over the serial baseline. On a single-CPU
// machine the sweep degenerates to the serial row.
func runParallelSweep(opt options) error {
	channels, cols, rows, bits := figureScale(opt)
	fmt.Printf("Worker-count sweep (C=%d, B=%d, n=%d-bit, %d CPUs):\n",
		channels, cols*rows, bits, runtime.GOMAXPROCS(0))
	params, err := bench.SmallParams(channels, cols, rows, bits)
	if err != nil {
		return err
	}
	params.CacheEntries = opt.cacheEntries
	fmt.Println("  setting up deployment (keys + initial budget encryption)...")
	u, err := bench.NewUniverse(params)
	if err != nil {
		return err
	}
	var serial bench.Figure6Stats
	for i, w := range sweepWorkerCounts() {
		u.SetParallelism(w)
		stats, err := u.MeasureFigure6()
		if err != nil {
			return err
		}
		if i == 0 {
			serial = stats
		}
		speedup := func(base, cur time.Duration) float64 {
			if cur <= 0 {
				return 0
			}
			return float64(base) / float64(cur)
		}
		fmt.Printf("  workers=%-3d prepare %-12v (%.2fx)  process %-12v (%.2fx)  update %-12v (%.2fx)\n",
			w,
			stats.Prepare.Round(time.Microsecond), speedup(serial.Prepare, stats.Prepare),
			stats.Process.Round(time.Microsecond), speedup(serial.Process, stats.Process),
			stats.PUUpdate.Round(time.Microsecond), speedup(serial.PUUpdate, stats.PUUpdate))
	}
	fmt.Println("  (speedups are relative to workers=1 on this machine)")
	fmt.Println()
	return nil
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.3f ms", float64(d.Microseconds())/1000)
}
