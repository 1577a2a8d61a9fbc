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
//	pisabench -all             # everything
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
// -figure6 and -tradeoff measure one deployment at the paper's own
// scale: 100 channels on a 30x20 grid, 2048-bit keys, k = 12 block
// cells per ciphertext. -figure6 judges its request against the
// plaintext WATCH oracle and fails when the license disagrees. Every
// homomorphic kernel fans out over GOMAXPROCS workers, so GOMAXPROCS=1
// is the paper's single-threaded configuration.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"

	"pisa/internal/bench"
	"pisa/internal/config"
	"pisa/internal/deploy"
	"pisa/internal/obs"
	"pisa/internal/pisa"
	"pisa/internal/store"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pisabench:", err)
		os.Exit(1)
	}
}

type options struct {
	table1, table2, figure6, tradeoff, sizes, fhe, ablation bool
	bits                                                    int
	iters                                                   int
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
	fs.IntVar(&opt.bits, "bits", 2048, "Paillier modulus bits for Table II")
	fs.IntVar(&opt.iters, "iters", 30, "iterations per Table II measurement (paper uses 30)")
	fs.StringVar(&opt.metricsDump, "metrics-dump", "",
		"after the experiments, dump the obs registry in Prometheus text format to this path (\"-\" = stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *all {
		opt.table1, opt.table2, opt.figure6 = true, true, true
		opt.tradeoff, opt.sizes, opt.fhe, opt.ablation = true, true, true, true
	}
	if !(opt.table1 || opt.table2 || opt.figure6 || opt.tradeoff || opt.sizes || opt.fhe || opt.ablation) {
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
		params, err := paperParams()
		if err != nil {
			return err
		}
		if _, err := runFigure6(params); err != nil {
			return err
		}
	}
	if opt.tradeoff {
		if err := runTradeoff(); err != nil {
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

// paperParams is the paper's deployment (Table I): 100 channels on a
// 30x20 grid of 10 m blocks with 2048-bit keys.
func paperParams() (pisa.Params, error) {
	c, _, bits := bench.PaperScaleParams()
	return bench.SmallParams(c, 30, 20, bits)
}

// runFigure6 measures Figure 6 on one deployment of params and prints
// its rows beside the paper's. A license verdict the plaintext WATCH
// oracle disagrees with is an error.
func runFigure6(params pisa.Params) (bench.Figure6Stats, error) {
	w := params.Watch
	fmt.Printf("Figure 6: System evaluation (C=%d, B=%d, n=%d-bit, k=%d, GOMAXPROCS=%d)\n",
		w.Channels, w.Grid.Blocks(), params.PaillierBits, params.PackSlots(), runtime.GOMAXPROCS(0))
	fmt.Println("  setting up deployment (keys + initial budget encryption)...")
	u, err := bench.NewUniverse(params)
	if err != nil {
		return bench.Figure6Stats{}, err
	}
	stats, err := u.MeasureFigure6()
	if err != nil {
		return stats, err
	}
	restoreEmpty, restoreTail, err := measureRestore(u)
	if err != nil {
		return stats, err
	}
	row := func(name string, d time.Duration, paper string) {
		r := time.Duration(1) // about three significant digits
		for r*1000 <= d {
			r *= 10
		}
		fmt.Printf("  %-44s %-12v %s\n", name, d.Round(r), paper)
	}
	row("SU request preparation", stats.Prepare, "(paper: ~221 s)")
	row("SU request refresh (re-randomised, pooled)", stats.Refresh, "(paper: ~11 s)")
	row("SU request resend (byte-identical)", stats.Resend, "")
	row("SDC request processing", stats.ProcessSDC, "(paper: ~219 s)")
	row("  of which aggregate (eqs. 11-12)", stats.Aggregate, "")
	row("  of which blind (eq. 14)", stats.Blind, "")
	row("STP decrypt + convert (outside the 219 s)", stats.ProcessSTP, "")
	row("SU open (decrypt + verify license)", stats.Open, "")
	row("PU update, slot 0 of its group", stats.PUUpdate, "(paper: ~2.6 s)")
	row(fmt.Sprintf("PU update, slot %d of its group", params.PackSlots()-1), stats.PUUpdateLast, "(paper: ~2.6 s)")
	row(fmt.Sprintf("RestoreSDC, %d PU groups, empty tail", stats.PUGroups), restoreEmpty, "")
	row(fmt.Sprintf("RestoreSDC, %d PU groups, one-group tail", stats.PUGroups), restoreTail, "")
	sizes := bench.ComputeSizes(stats.Channels, stats.Blocks, params.PaillierBits)
	fmt.Printf("  %-44s %.2f MB   (k=%d)\n", "request size (packed)", float64(stats.RequestBytes)/(1<<20), params.PackSlots())
	fmt.Printf("  %-44s %.1f MB   (paper: ~29 MB)\n", "request size at k=1 (size identity)", float64(sizes.RequestBytes)/(1<<20))
	fmt.Printf("  %-44s %.3f MB  (paper: ~0.05 MB)\n", "PU update size", float64(stats.UpdateBytes)/(1<<20))
	fmt.Printf("  %-44s %.1f kb   (paper: ~4.1 kb)\n", "SDC response size", float64(stats.CiphertextBytes*8)/1e3)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return stats, err
	}
	// Linux reports ru_maxrss in KiB.
	fmt.Printf("  %-44s %.0f MiB\n", "peak RSS", float64(ru.Maxrss)/1024)
	verdict := map[bool]string{true: "GRANTED", false: "DENIED"}
	fmt.Printf("  %-44s %s (WATCH oracle: %s)\n", "license", verdict[stats.Granted], verdict[stats.OracleGranted])
	fmt.Println()
	if stats.Granted != stats.OracleGranted {
		return stats, fmt.Errorf("figure 6: license %s but the WATCH oracle %s the request",
			verdict[stats.Granted], verdict[stats.OracleGranted])
	}
	return stats, nil
}

// measureRestore snapshots the universe's SDC into a scratch store
// directory and boots deploy.New on it, as sdcd does, twice: with an
// empty WAL tail, and after a PU joining in block 1 reached the first
// boot's log.
func measureRestore(u *bench.Universe) (empty, tail time.Duration, err error) {
	dir, err := os.MkdirTemp("", "pisabench-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	state, err := u.SDC.ExportState()
	if err != nil {
		return 0, 0, err
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return 0, 0, err
	}
	if err := errors.Join(st.SaveSnapshot(state), st.Close()); err != nil {
		return 0, 0, err
	}
	boot := func() (*deploy.Deployment, time.Duration, error) {
		start := time.Now()
		d, err := deploy.New(deploy.Config{Issuer: "bench-sdc", Params: u.Params, STP: u.STP, Store: config.StoreSpec{Dir: dir}})
		return d, time.Since(start), err
	}
	d, empty, err := boot()
	if err != nil {
		return 0, 0, err
	}
	if err := errors.Join(joinPU(d.SDC, u), d.Close(false)); err != nil {
		return 0, 0, err
	}
	if d, tail, err = boot(); err != nil {
		return 0, 0, err
	}
	return empty, tail, d.Close(false)
}

// joinPU sends sdc the first update of a PU in block 1 of u's grid.
func joinPU(sdc *pisa.SDC, u *bench.Universe) error {
	eCol, err := sdc.EColumn(1)
	if err != nil {
		return err
	}
	pu, err := pisa.NewPU(nil, "restore-pu", 1, eCol, u.STP.GroupKey(), u.Params)
	if err != nil {
		return err
	}
	w := u.Params.Watch
	update, err := pu.Tune(0, w.Quantize(w.SMinPUmW*100))
	if err != nil {
		return err
	}
	return sdc.HandlePUUpdate(update)
}

func runTradeoff() error {
	params, err := paperParams()
	if err != nil {
		return err
	}
	grid := params.Watch.Grid
	fmt.Printf("Privacy/time trade-off (C=%d, full grid %dx%d, n=%d-bit):\n",
		params.Watch.Channels, grid.Cols(), grid.Rows(), params.PaillierBits)
	u, err := bench.NewUniverse(params)
	if err != nil {
		return err
	}
	eirp := map[int]int64{0: params.Watch.Quantize(1)}
	fractions := []int{4, 2, 1} // quarter, half, full disclosure
	for _, f := range fractions {
		top := grid.Rows() / f
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

func ms(d time.Duration) string {
	return fmt.Sprintf("%.3f ms", float64(d.Microseconds())/1000)
}
