// Command sdcd runs the spectrum database controller: it fetches the
// group key from the STP, precomputes the public E matrix and
// protection distances, encrypts the initial budgets, and serves PU
// updates and SU transmission requests. SU requests always pass through
// a router (pisa.Router), which issues the licenses: a monolithic
// daemon is the one-shard router over its single SDC, and logs the same
// "router summary" at shutdown as a sharded one.
//
// With -store (or a store.dir in the config) the SDC is durable:
// every accepted PU update is journalled to a write-ahead log before
// it is acknowledged, periodic snapshots compact the log, and a
// restart recovers the exact pre-crash state from snapshot + WAL tail.
// Every shape below is assembled by internal/deploy (DESIGN.md §15).
//
// The -stp flag (and the config's stpAddr/stpAddrs) may list several
// comma-separated STP replicas; the client retries transient faults
// with backoff and fails over between replicas when one stops
// answering (see the rpc config section for the knobs).
//
// Usage:
//
//	sdcd [-config pisa.json] [-listen host:port] [-stp host:port,host:port]
//	     [-issuer name] [-store dir] [-snapshot-on-exit=true]
//	     [-metrics host:port]
//	     [-cache entries|off] [-cache-domains decls|off]
//	     [-shards n | -shard-index i -shard-count n]
//
// With -shards N (or "shards" in the config) the daemon partitions
// the budget matrix into N channel slices, each owned by an
// independent windowed SDC with its own WAL/snapshot subdirectory
// (store dir/shard-i), and its router fans every SU request out to
// all N, masking the single license with every shard's encrypted
// grant indicator, never adding them up (DESIGN.md §15).
// Alternatively -shard-index i -shard-count n serves exactly one
// shard of a multi-host partition, without a router of its own; run
// cmd/sdcrouterd in front of n such daemons, each of which keeps its
// state under store dir/shard-i.
//
// The SDC memoises the aggregate pass of repeated request shapes in an
// encrypted-decision cache (DESIGN.md §14): hits skip the eq. 11-12
// recompute and blind the cached ciphertexts from power tables, and a
// ciphertext is invalidated exactly when a PU update is folded into one
// of its blocks. -cache
// bounds the entry count; -cache=off (or "cacheEntries": 0) disables
// it. Entries are scoped per SU by default (a dishonest shape digest
// is strictly self-inflicted); -cache-domains "fleet-a=su1,su2;..."
// (config "cacheDomains") declares trust domains whose member SUs
// share entries with each other — the fleet-concentration win, at the
// cost of trusting every declared member's digests.
//
// sdcd serves the encrypted PISA protocol only. A config whose
// "backend" is "pir" describes a multi-server PIR deployment
// (DESIGN.md §13), whose replicas are cmd/pirdbd: sdcd refuses it
// rather than serve PISA to clients that will dial PIR.
//
// With -metrics (or an obs.metricsAddr in the config) the daemon
// serves Prometheus metrics on /metrics and the net/http/pprof
// profiling endpoints on /debug/pprof/, on a dedicated port: per-stage
// SU request latencies, PU update and column-rebuild timings, the
// decision cache's events, entries and power tables, WAL
// append/fsync/snapshot timings, and the RPC client/server counters.
package main

import (
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
	stpAddr := fs.String("stp", "", "comma-separated STP addresses (overrides config stpAddr/stpAddrs)")
	issuer := fs.String("issuer", "pisa-sdc", "license issuer name")
	storeDir := fs.String("store", "", "state directory for WAL + snapshots (overrides config store.dir; empty = in-memory)")
	snapOnExit := fs.Bool("snapshot-on-exit", true, "take a final snapshot during graceful shutdown")
	metricsAddr := fs.String("metrics", "", "serve /metrics and /debug/pprof on this address (overrides config obs.metricsAddr; empty = disabled)")
	cacheFlag := fs.String("cache", "", "encrypted-decision cache entry bound, or 'off' (overrides config cacheEntries)")
	cacheDomainsFlag := fs.String("cache-domains", "", "cross-SU cache trust domains 'name=su1,su2[;...]', or 'off' for per-SU scope (overrides config cacheDomains)")
	shards := fs.Int("shards", -1, "partition the budget matrix into this many in-process channel shards behind a fan-out router (overrides config shards; 0 or 1 = monolithic)")
	shardIndex := fs.Int("shard-index", -1, "serve exactly one channel shard of a -shard-count partition (for multi-host sharding behind cmd/sdcrouterd)")
	shardCount := fs.Int("shard-count", 0, "total shard count of the partition this -shard-index belongs to")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := config.Load(*configPath)
	if err != nil {
		return err
	}
	backendName, err := cfg.BackendName()
	if err != nil {
		return err
	}
	if backendName == config.BackendPIR {
		return fmt.Errorf("config selects backend %q: sdcd serves PISA only, run cmd/pirdbd for the PIR replicas", backendName)
	}
	if *cacheFlag != "" {
		entries, err := config.ParseCacheFlag(*cacheFlag)
		if err != nil {
			return err
		}
		cfg.CacheEntries = entries
	}
	if *cacheDomainsFlag != "" {
		domains, err := config.ParseCacheDomainsFlag(*cacheDomainsFlag)
		if err != nil {
			return err
		}
		cfg.CacheDomains = domains
	}
	addr := cfg.SDCAddr
	if *listen != "" {
		addr = *listen
	}
	stpTargets := cfg.STPTargets()
	if *stpAddr != "" {
		stpTargets = config.SplitAddrs(*stpAddr)
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

	// One SDC per channel window behind a fan-out router; a single
	// full-window SDC is its own one-shard router. A -shard-index daemon
	// is one remote channel shard of a multi-host partition, fronted by
	// cmd/sdcrouterd: it refuses whole-matrix SU requests and answers
	// KindShardQuery with its window's grant indicators.
	if *shards >= 0 {
		cfg.Shards = *shards
	}
	dcfg := deploy.Config{Issuer: *issuer, Params: params, Windows: cfg.Shards, Store: cfg.Store, Log: log}
	if *shardIndex >= 0 {
		if *shardCount < 1 || *shardIndex >= *shardCount {
			return fmt.Errorf("-shard-index %d needs -shard-count greater than the index", *shardIndex)
		}
		if cfg.Shards > 1 {
			return fmt.Errorf("-shard-index (one remote shard) and -shards (in-process partition) are mutually exclusive")
		}
		dcfg.Windows, dcfg.Lone, dcfg.Index = *shardCount, true, *shardIndex
	}

	log.Info("connecting to STP", "addrs", stpTargets)
	stp, err := node.DialSTPWith(rpcOpts, stpTargets...)
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
	var backend node.SDCBackend = d.Front
	if dcfg.Lone {
		backend = d.Units[0].SDC
		lo, hi := d.Units[0].SDC.ChannelWindow()
		log.Info("serving channel shard", "index", *shardIndex, "of", *shardCount,
			"window", fmt.Sprintf("[%d,%d)", lo, hi))
	} else if len(d.Units) > 1 {
		log.Info("sharded SDC assembled", "shards", len(d.Units))
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
		for _, u := range d.Units {
			logSummary(log, u)
		}
		if d.Front != nil {
			log.Info("router summary", d.Front.Stats().LogAttrs()...)
		}
		logSTPClient(log, stp)
		// Both decrypt counts stay 0 (this process holds no secret key)
		// and fullWidthNonces too (nothing on the request path calls
		// EncryptWithNonce). nonceTables grows by one per key that
		// encrypts: the group key, and each SU key the license tail used.
		short, full := paillier.Decrypts()
		log.Info("paillier summary", "fullWidthNonces", paillier.FullWidthNonces(),
			"nonceTables", paillier.NonceTables(),
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

// logSummary emits one unit's shutdown state digest: protocol counters,
// decision-cache effectiveness, and (when durable) WAL pressure plus
// where it booted from. A windowed unit — one shard of a partition,
// in process or alone — is labelled with its index and window.
func logSummary(log *slog.Logger, u *deploy.Unit) {
	sum := u.SDC.Summary()
	attrs := []any{}
	if u.SDC.Router() == nil {
		lo, hi := u.SDC.ChannelWindow()
		attrs = append(attrs, "shard", u.Index, "window", fmt.Sprintf("[%d,%d)", lo, hi))
	}
	attrs = append(attrs,
		"pus", sum.PUs,
		"blocksWithPUs", sum.BlocksWithPUs,
		"populatedCells", sum.PopulatedCells,
		"serial", sum.Serial,
		"bootSource", u.Source,
	)
	cs := u.SDC.CacheStats()
	attrs = append(attrs,
		"cacheHits", cs.Hits,
		"cacheMisses", cs.Misses,
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
	if u.Store != nil {
		stats := u.Store.Stats()
		attrs = append(attrs,
			"walRecordsSinceSnapshot", stats.RecordsSinceSnapshot,
			"walSegments", stats.Segments,
			"lastIndex", stats.LastIndex,
			"snapshotIndex", stats.SnapshotIndex)
	}
	log.Info("state summary", attrs...)
}

// logSTPClient emits the STP link's resilience counters so operators
// can see whether the run leaned on retries or failover.
func logSTPClient(log *slog.Logger, stp *node.STPClient) {
	stats := stp.Stats()
	attrs := []any{
		"calls", stats.Calls,
		"retries", stats.Retries,
		"transportFaults", stats.TransportFaults,
		"failovers", stats.Failovers,
		"breakerOpens", stats.BreakerOpens,
	}
	for _, ep := range stats.Endpoints {
		attrs = append(attrs, "endpoint."+ep.Addr, ep.BreakerState)
	}
	log.Info("stp client summary", attrs...)
}
