// Command sdcd runs the spectrum database controller: it fetches the
// group key from the STP, precomputes the public E matrix and
// protection distances, encrypts the initial budgets, and serves PU
// updates and SU transmission requests. SU requests always pass through
// a router (pisa.Router), which issues the licenses: a monolithic
// daemon is the one-shard router over its single SDC, and exports the
// same pisa_router_* series as cmd/sdcrouterd.
//
// With -store (or a store.dir in the config) the SDC is durable:
// every accepted PU update is journalled to a write-ahead log before
// it is acknowledged, periodic snapshots compact the log, and a
// restart recovers the exact pre-crash state from snapshot + WAL tail.
// The daemon's one SDC is assembled by internal/deploy (DESIGN.md §15).
//
// The -stp flag (or the config's stpAddr) names the one STP; the client
// retries transient faults with backoff, which also rides out an STP
// restart on the same address (see the rpc config section for the
// knobs).
//
// Usage:
//
//	sdcd [-config pisa.json] [-listen host:port] [-stp host:port]
//	     [-issuer name] [-store dir] [-snapshot-on-exit=true]
//	     [-metrics host:port]
//	     [-cache entries|off]
//	     [-shard-index i -shard-count n]
//
// With -shard-index i -shard-count n the daemon serves exactly one
// channel window of an n-window partition of the budget matrix, with
// its state under store dir/shard-i, and answers the router's shard
// queries; run cmd/sdcrouterd in front of the n daemons. The router
// fans every SU request out to all n and masks the single license with
// every shard's encrypted grant indicator, never adding them up
// (DESIGN.md §15).
//
// The SDC memoises the aggregate pass of repeated requests in an
// encrypted-decision cache (DESIGN.md §14): hits skip the eq. 11-12
// recompute and blind the cached ciphertexts from power tables, and a
// ciphertext is invalidated exactly when a PU update is folded into one
// of its blocks. An entry is keyed on the ciphertexts that filled it, so
// it serves only byte-identical resends of its own request. -cache
// bounds the entry count; -cache=off (or "cacheEntries": 0) disables
// it.
//
// With -metrics (or an obs.metricsAddr in the config) the daemon
// serves Prometheus metrics on /metrics and the net/http/pprof
// profiling endpoints on /debug/pprof/, on a dedicated port: per-stage
// SU request latencies, PU update and column-rebuild timings, the
// decision cache's events, entries and power tables, WAL
// append/fsync/snapshot timings, and the RPC client/server counters.
package main

import (
	"cmp"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pisa/internal/config"
	"pisa/internal/deploy"
	"pisa/internal/node"
	"pisa/internal/obs"
	"pisa/internal/paillier"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sdcd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("sdcd", flag.ContinueOnError)
	configPath := fs.String("config", "", "deployment config JSON (defaults built in)")
	listen := fs.String("listen", "", "listen address (overrides config sdcAddr)")
	stpAddr := fs.String("stp", "", "STP address (overrides config stpAddr)")
	issuer := fs.String("issuer", "pisa-sdc", "license issuer name")
	storeDir := fs.String("store", "", "state directory for WAL + snapshots (overrides config store.dir; empty = in-memory)")
	snapOnExit := fs.Bool("snapshot-on-exit", true, "take a final snapshot during graceful shutdown")
	metricsAddr := fs.String("metrics", "", "serve /metrics and /debug/pprof on this address (overrides config obs.metricsAddr; empty = disabled)")
	cacheFlag := fs.String("cache", "", "encrypted-decision cache entry bound, or 'off' (overrides config cacheEntries)")
	shardIndex := fs.Int("shard-index", -1, "serve exactly one channel shard of a -shard-count partition (for multi-host sharding behind cmd/sdcrouterd)")
	shardCount := fs.Int("shard-count", 0, "total shard count of the partition this -shard-index belongs to")
	if err := fs.Parse(args); err != nil {
		return err
	}
	stpTarget, err := config.OneAddr("-stp", "STP", *stpAddr)
	if err != nil {
		return err
	}
	cfg, err := config.Load(*configPath)
	if err != nil {
		return err
	}
	if *cacheFlag != "" {
		entries, err := config.ParseCacheFlag(*cacheFlag)
		if err != nil {
			return err
		}
		cfg.CacheEntries = entries
	}
	addr := cfg.SDCAddr
	if *listen != "" {
		addr = *listen
	}
	rpcOpts, err := cfg.RPC.Options()
	if err != nil {
		return err
	}
	if *storeDir != "" {
		cfg.Store.Dir = *storeDir
	}
	params, err := cfg.PisaParams()
	if err != nil {
		return err
	}
	log := slog.New(slog.NewTextHandler(os.Stderr, nil))

	if *metricsAddr != "" {
		cfg.Obs.MetricsAddr = *metricsAddr
	}
	if cfg.Obs.Enabled() {
		obsSrv, err := obs.ListenAndServe(cfg.Obs.MetricsAddr, nil)
		if err != nil {
			return err
		}
		defer obsSrv.Close()
		log.Info("metrics serving", "addr", obsSrv.Addr(), "endpoints", "/metrics /debug/pprof/")
	}

	// A full-window SDC is served as its own one-shard router. A
	// -shard-index daemon is one channel shard of a partition, fronted by
	// cmd/sdcrouterd: it answers KindShardQuery with its window's grant
	// indicators.
	dcfg := deploy.Config{Issuer: *issuer, Params: params, Store: cfg.Store, Log: log}
	if *shardIndex >= 0 {
		if *shardCount < 1 || *shardIndex >= *shardCount {
			return fmt.Errorf("-shard-index %d needs -shard-count greater than the index", *shardIndex)
		}
		dcfg.Windows, dcfg.Index = *shardCount, *shardIndex
	}

	stpTarget = cmp.Or(stpTarget, cfg.STPAddr)
	log.Info("connecting to STP", "addr", stpTarget)
	stp, err := node.DialSTPWith(rpcOpts, stpTarget)
	if err != nil {
		return err
	}
	defer stp.Close()

	start := time.Now()
	dcfg.STP = stp
	d, err := deploy.New(dcfg)
	if err != nil {
		return err
	}
	defer d.Close(false)
	var backend node.SDCBackend = d.SDC.Router()
	if *shardIndex >= 0 {
		backend = d.SDC
		lo, hi := d.SDC.ChannelWindow()
		log.Info("serving channel shard", "index", *shardIndex, "of", *shardCount,
			"window", fmt.Sprintf("[%d,%d)", lo, hi))
	}
	log.Info("initialisation complete", "took", time.Since(start).String())

	srv := node.NewSDCServer(backend, log, 0)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	log.Info("SDC serving", "addr", ln.Addr().String())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case s := <-sig:
		log.Info("shutting down", "signal", s.String())
		logSummary(log, d)
		logSTPClient(log, stp)
		// Both decrypt counts stay 0 (this process holds no secret key).
		// nonceTables grows by one per key that encrypts: the group key,
		// and each SU key the license tail used.
		short, full := paillier.Decrypts()
		log.Info("paillier summary", "nonceTables", paillier.NonceTables(),
			"decryptShort", short, "decryptFull", full)
		err := srv.Close()
		if snapErr := d.Close(*snapOnExit); err == nil {
			err = snapErr
		}
		return err
	case err := <-errCh:
		return err
	}
}

// logSummary emits the SDC's shutdown state digest: protocol counters,
// decision-cache effectiveness, and (when durable) WAL pressure plus
// where it booted from. A windowed SDC — one shard of a partition — is
// labelled with its index and window.
func logSummary(log *slog.Logger, d *deploy.Deployment) {
	sum := d.SDC.Summary()
	attrs := []any{}
	if d.SDC.Router() == nil {
		lo, hi := d.SDC.ChannelWindow()
		attrs = append(attrs, "shard", d.Index, "window", fmt.Sprintf("[%d,%d)", lo, hi))
	}
	attrs = append(attrs,
		"pus", sum.PUs,
		"blocksWithPUs", sum.BlocksWithPUs,
		"populatedCells", sum.PopulatedCells,
		"serial", sum.Serial,
		"bootSource", d.Source,
	)
	cs := d.SDC.CacheStats()
	attrs = append(attrs,
		"cacheHits", cs.Hits,
		"cacheMisses", cs.Misses,
		// Misses that installed an entry, their shape having missed
		// before; the rest were first misses.
		"cacheAdmitted", cs.Admitted,
		"cacheStale", cs.Stale,
		"cacheEvicted", cs.Evicted,
		// Of the ciphertexts of entries found stale, those no PU update
		// had touched and those recomputed.
		"cacheCellsKept", cs.CellsKept,
		"cacheCellsRecomputed", cs.CellsRecomputed)
	// Servings blinded from power tables, in whole or in part; the rest
	// took the general exponentiation throughout.
	attrs = append(attrs,
		"cacheHitsTabled", cs.Tabled,
		"cacheTableBuilds", cs.TableBuilds,
		"cacheTableDrops", cs.TableDrops,
		"cacheTableBytes", cs.TableBytes)
	if d.Store != nil {
		stats := d.Store.Stats()
		attrs = append(attrs,
			"walRecordsSinceSnapshot", stats.RecordsSinceSnapshot,
			"walSegments", stats.Segments,
			"lastIndex", stats.LastIndex,
			"snapshotIndex", stats.SnapshotIndex)
	}
	log.Info("state summary", attrs...)
}

// logSTPClient emits the STP link's resilience counters so operators
// can see whether the run leaned on retries.
func logSTPClient(log *slog.Logger, stp *node.STPClient) {
	stats := stp.Stats()
	log.Info("stp client summary", "calls", stats.Calls, "retries", stats.Retries,
		"transportFaults", stats.TransportFaults)
}
