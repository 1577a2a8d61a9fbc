// Command pisaload is the trace-driven scenario engine + load
// harness: a fleet of mobile SUs (per-SU revisit behaviour, Zipf
// attribution, home-block mobility) and diurnal PU channel churn
// drive a deployment at a configurable arrival rate, and the run's
// SLOs (p50/p99/p999 per pipeline stage, from the live obs
// histograms) land on stdout and optionally in a JSON trajectory.
//
// Modes:
//
//	-mode open    dispatch arrivals at their trace times regardless of
//	              completions — the backlog grows when the deployment
//	              falls behind the offered rate (-rate req/s).
//	-mode closed  -workers concurrent SUs issue requests back to back
//	              with -think pause between them; the achieved rate is
//	              whatever the deployment sustains.
//
// Deployments:
//
//	default       in-process monolithic SDC (+STP) at -channels/-cols/
//	              -rows/-bits scale
//	-backend pir  in-process multi-server XOR-PIR fleet (-replicas/-k),
//	              the only way to run the PIR comparison
//	-addr         remote: -addr host:port names the SDC (or the
//	              sdcrouterd of a channel partition) and -stp the STP,
//	              with -config carrying the deployment parameters (same
//	              file suctl/sdcd use)
//
// Examples:
//
//	pisaload -mode closed -workers 8 -duration 30s -json load.json
//	pisaload -mode open -rate 20 -duration 10s -fleet 100 -mobility 0.1
//	pisaload -backend pir -mode closed -workers 16 -duration 5s
//
// The -require-no-errors / -require-cache-hits gates make the run a
// CI smoke check: the exit status asserts what the numbers must show.
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"pisa/internal/bench"
	"pisa/internal/config"
	"pisa/internal/node"
	"pisa/internal/watch"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pisaload:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("pisaload", flag.ContinueOnError)
	mode := fs.String("mode", "closed", "load mode: open (fixed offered rate) or closed (workers + think time)")
	duration := fs.Duration("duration", 10*time.Second, "wall-clock run length (one diurnal period compresses into it)")
	rate := fs.Float64("rate", 10, "offered arrival rate in requests/second (open loop; sizes the trace in closed loop)")
	workers := fs.Int("workers", 4, "closed-loop concurrency")
	think := fs.Duration("think", 0, "closed-loop think time between a worker's requests")
	seed := fs.Int64("seed", 42, "workload seed (reproducible traces)")
	retries := fs.Int("retries", 0, "re-submissions per failed request before it counts as an error")

	fleet := fs.Int("fleet", 32, "fleet size: distinct SUs requests are attributed to")
	fleetZipf := fs.Float64("fleet-zipf", 1.4, "Zipf skew of per-SU request attribution (>1; 0 = uniform)")
	mobility := fs.Float64("mobility", 0.05, "probability a fleet member roams to a new block per request")
	channelZipf := fs.Float64("channel-zipf", 1.5, "Zipf skew of channel popularity (>1; 0 = uniform)")
	eirpLevels := fs.Int("eirp-levels", 3, "discrete EIRP device classes (0 = continuous log-uniform)")
	channelsPer := fs.Float64("channels-per-request", 1.5, "mean channels per request")

	pus := fs.Int("pus", 2, "primary users generating channel churn (0 = none)")
	puSwitches := fs.Float64("pu-switches", 120, "per-PU switching rate per hour of run time")
	offProb := fs.Float64("off-prob", 0.1, "chance a PU tuning event turns the receiver off")
	puZipf := fs.Float64("pu-zipf", 1.3, "Zipf skew of PU channel popularity")
	diurnal := fs.Float64("diurnal", 0.8, "diurnal amplitude of the PU switching rate (0 = homogeneous)")

	channels := fs.Int("channels", 3, "in-process deployment: channels C")
	cols := fs.Int("cols", 5, "in-process deployment: grid columns")
	rows := fs.Int("rows", 4, "in-process deployment: grid rows")
	bits := fs.Int("bits", 576, "in-process deployment: Paillier modulus bits (min 576)")
	cacheEntries := fs.Int("cache", 256, "in-process deployment: encrypted-decision cache entries (0 = off)")
	backend := fs.String("backend", "pisa", "query backend: pisa (encrypted protocol) or pir (multi-server PIR)")
	replicas := fs.Int("replicas", 3, "in-process PIR: replica fleet size m")
	k := fs.Int("k", 2, "in-process PIR: replicas each query fans out to")

	addr := fs.String("addr", "", "remote SDC address (sdcd or sdcrouterd), exactly one (requires -config or defaults)")
	stpAddr := fs.String("stp", "", "remote STP address, exactly one (overrides config stpAddr)")
	configPath := fs.String("config", "", "deployment config JSON for remote runs (defaults built in)")

	jsonPath := fs.String("json", "", "write the LoadReport as JSON to this path")
	requireNoErrors := fs.Bool("require-no-errors", false, "exit non-zero if any request failed (CI smoke gate)")
	requireCacheHits := fs.Bool("require-cache-hits", false, "exit non-zero if the decision cache never hit (CI smoke gate)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sdcAddr, err := config.OneAddr("-addr", "SDC", *addr)
	if err != nil {
		return err
	}
	stpTarget, err := config.OneAddr("-stp", "STP", *stpAddr)
	if err != nil {
		return err
	}

	cfg := bench.LoadConfig{
		Mode:       *mode,
		Duration:   *duration,
		Rate:       *rate,
		Workers:    *workers,
		Think:      *think,
		Seed:       *seed,
		MaxRetries: *retries,

		Fleet:              *fleet,
		FleetZipfS:         *fleetZipf,
		Mobility:           *mobility,
		ChannelZipfS:       *channelZipf,
		EIRPLevels:         *eirpLevels,
		ChannelsPerRequest: *channelsPer,

		PUs:               *pus,
		PUSwitchesPerHour: *puSwitches,
		OffProbability:    *offProb,
		PUZipfS:           *puZipf,
		DiurnalAmplitude:  *diurnal,

		Channels: *channels, Cols: *cols, Rows: *rows,
		PaillierBits: *bits,
		CacheEntries: *cacheEntries,
		Backend:      *backend,
		Replicas:     *replicas, K: *k,
	}

	// A remote deployment: the node RPC clients are the engine's Target.
	if sdcAddr != "" {
		if *backend == "pir" {
			return errors.New("-backend pir runs its own in-process replica fleet; drop -addr")
		}
		file, err := config.Load(*configPath)
		if err != nil {
			return err
		}
		rpcOpts, err := file.RPC.Options()
		if err != nil {
			return err
		}
		params, err := file.PisaParams()
		if err != nil {
			return err
		}
		stp, err := node.DialSTPWith(rpcOpts, cmp.Or(stpTarget, file.STPAddr))
		if err != nil {
			return err
		}
		defer stp.Close()
		sdcOpts := rpcOpts
		sdcOpts.CallTimeout = max(sdcOpts.CallTimeout, 10*time.Minute)
		sdc := node.DialSDCWith(sdcOpts, sdcAddr)
		defer sdc.Close()
		planner, err := watch.NewPlanner(params.Watch)
		if err != nil {
			return err
		}
		verifyKey, err := sdc.VerifyKey()
		if err != nil {
			return fmt.Errorf("fetch verify key: %w", err)
		}
		cfg.Target = bench.Target{Front: sdc, STP: stp, Planner: planner, VerifyKey: verifyKey}
		cfg.TargetParams = params
	}

	fmt.Printf("pisaload: %s loop, %v horizon, backend %s", cfg.Mode, cfg.Duration, *backend)
	if cfg.Target.Front != nil {
		fmt.Printf(", remote")
	}
	fmt.Printf(", fleet %d\n", cfg.Fleet)

	report, err := bench.RunLoad(cfg)
	if err != nil {
		return err
	}
	printReport(report)
	if *jsonPath != "" {
		if err := report.WriteJSON(*jsonPath); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
	if *requireNoErrors && report.Errors > 0 {
		return fmt.Errorf("%d of %d requests failed (require-no-errors): %s",
			report.Errors, report.Requests, report.FirstError)
	}
	if *requireCacheHits && report.CacheHits == 0 {
		return errors.New("decision cache never hit (require-cache-hits)")
	}
	return nil
}

// printReport renders the human-readable run summary.
func printReport(r *bench.LoadReport) {
	fmt.Printf("\n=== load report: %s / %s", r.Mode, r.Backend)
	fmt.Printf(" (C=%d B=%d", r.Channels, r.Blocks)
	if r.PaillierBits > 0 {
		fmt.Printf(", %d-bit", r.PaillierBits)
	}
	fmt.Printf(") ===\n")
	fmt.Printf("rate      offered %.1f/s, achieved %.1f/s over %.1fs", r.OfferedRate, r.AchievedRate, r.DurationSec)
	if r.Mode == "open" {
		fmt.Printf(" (peak backlog %d)", r.PeakBacklog)
	}
	fmt.Println()
	fmt.Printf("requests  %d total: %d granted, %d denied, %d errors, %d retries\n",
		r.Requests, r.Grants, r.Denials, r.Errors, r.Retries)
	if r.FirstError != "" {
		fmt.Printf("          first error: %s\n", r.FirstError)
	}
	if r.Backend != "pir" {
		fmt.Printf("fleet     %d registered of %d; %d fresh preparations, %d refreshes\n",
			r.Registered, r.Fleet, r.Prepared, r.Refreshed)
		fmt.Printf("cache     %.0f%% hit rate (%d hits, %d misses, %d stale)\n",
			r.CacheHitRate*100, r.CacheHits, r.CacheMisses, r.CacheStale)
	}
	fmt.Printf("pu churn  %d updates applied, %d failed\n", r.PUUpdates, r.PUErrors)
	if len(r.Stages) == 0 {
		return
	}
	stages := append([]bench.StageSLO(nil), r.Stages...)
	sort.Slice(stages, func(i, j int) bool { return stages[i].Stage < stages[j].Stage })
	fmt.Printf("\n%-18s %8s %10s %10s %10s %10s\n", "stage", "count", "mean", "p50", "p99", "p999")
	for _, s := range stages {
		fmt.Printf("%-18s %8d %9.2fms %9.2fms %9.2fms %9.2fms\n",
			s.Stage, s.Count, s.MeanMs, s.P50Ms, s.P99Ms, s.P999Ms)
	}
}
