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
// cmd/sdcrouterd in front of n such daemons.
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
	"pisa/internal/node"
	"pisa/internal/obs"
	"pisa/internal/paillier"
	"pisa/internal/pisa"
	"pisa/internal/store"
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

	if *shards >= 0 {
		cfg.Shards = *shards
	}
	if *shardIndex >= 0 {
		if *shardCount < 1 || *shardIndex >= *shardCount {
			return fmt.Errorf("-shard-index %d needs -shard-count greater than the index", *shardIndex)
		}
		if cfg.Shards > 1 {
			return fmt.Errorf("-shard-index (one remote shard) and -shards (in-process partition) are mutually exclusive")
		}
	}

	log.Info("connecting to STP", "addrs", stpTargets)
	stp, err := node.DialSTPWith(rpcOpts, stpTargets...)
	if err != nil {
		return err
	}
	defer stp.Close()

	var (
		backendSDC node.SDCBackend
		units      []*sdcUnit
		router     *pisa.Router
	)
	start := time.Now()
	if *shardIndex >= 0 {
		// One remote channel shard of a multi-host partition, fronted
		// by cmd/sdcrouterd. It refuses whole-matrix SU requests and
		// answers KindShardQuery with its window's grant indicators.
		windows, err := pisa.Windows(params.Watch.Channels, *shardCount)
		if err != nil {
			return err
		}
		w := windows[*shardIndex]
		dir := ""
		if cfg.Store.Enabled() {
			dir = store.ShardDir(cfg.Store.Dir, *shardIndex)
		}
		u, err := buildSDC(cfg, params, *issuer, stp, log, dir,
			pisa.WithChannelWindow(w[0], w[1]))
		if err != nil {
			return err
		}
		defer u.release()
		units = append(units, u)
		backendSDC = u.sdc
		log.Info("serving channel shard", "index", *shardIndex, "of", *shardCount,
			"window", fmt.Sprintf("[%d,%d)", w[0], w[1]))
	} else {
		// One SDC per channel window behind a fan-out router; with more
		// than one window, each keeps its own WAL/snapshot subdirectory.
		// A single full-window SDC is its own one-shard router.
		windows, err := pisa.Windows(params.Watch.Channels, max(cfg.Shards, 1))
		if err != nil {
			return err
		}
		services := make([]pisa.ShardService, len(windows))
		for i, w := range windows {
			dir := ""
			if cfg.Store.Enabled() {
				dir = cfg.Store.Dir
				if len(windows) > 1 {
					dir = store.ShardDir(cfg.Store.Dir, i)
				}
			}
			u, err := buildSDC(cfg, params, *issuer, stp, log, dir,
				pisa.WithChannelWindow(w[0], w[1]))
			if err != nil {
				return err
			}
			defer u.release()
			units = append(units, u)
			services[i] = u.sdc
		}
		if router = units[0].sdc.Router(); router == nil {
			if router, err = pisa.NewRouter(*issuer, params, nil, stp, services); err != nil {
				return err
			}
			log.Info("sharded SDC assembled", "shards", len(services))
		}
		backendSDC = router
	}
	log.Info("initialisation complete", "took", time.Since(start).String())

	srv := node.NewSDCServer(backendSDC, log, 0)
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
		for i, u := range units {
			logSummary(log, u.sdc, u.st, u.source, len(units) > 1, i)
		}
		if router != nil {
			log.Info("router summary", router.Stats().LogAttrs()...)
		}
		logSTPClient(log, stp)
		// Both should be flat while requests flow: a full-width nonce is
		// a key on the request path without its table, and this process
		// holds no secret key to decrypt with.
		short, full := paillier.Decrypts()
		log.Info("paillier summary", "fullWidthNonces", paillier.FullWidthNonces(),
			"decryptShort", short, "decryptFull", full)
		err := srv.Close()
		for _, u := range units {
			if snapErr := u.finish(log, *snapOnExit); snapErr != nil && err == nil {
				err = snapErr
			}
		}
		return err
	case err := <-errCh:
		return err
	}
}

// sdcUnit is one SDC role instance plus its durability attachments —
// the monolithic controller, or one channel shard of a partition.
type sdcUnit struct {
	sdc    *pisa.SDC
	st     *store.Store
	keeper *store.Keeper
	source string
}

// release stops the background keeper and closes the store; safe to
// run after finish (both are idempotent).
func (u *sdcUnit) release() {
	if u.keeper != nil {
		u.keeper.Stop()
	}
	if u.st != nil {
		u.st.Close()
	}
}

// finish runs the graceful-shutdown tail: stop the keeper and, when
// asked, publish a final snapshot.
func (u *sdcUnit) finish(log *slog.Logger, snapOnExit bool) error {
	if u.keeper == nil {
		return nil
	}
	u.keeper.Stop()
	if !snapOnExit {
		return nil
	}
	if err := u.keeper.Snapshot(); err != nil {
		log.Error("final snapshot failed", "dir", u.st.Dir(), "err", err)
		return err
	}
	log.Info("final snapshot written", "dir", u.st.Dir())
	return nil
}

// buildSDC recovers (or initialises) one SDC role instance. A
// non-empty dir arms WAL + snapshot durability rooted there; an empty
// dir runs in memory.
func buildSDC(cfg config.File, params pisa.Params, issuer string, stp pisa.STPService,
	log *slog.Logger, dir string, opts ...pisa.SDCOption) (*sdcUnit, error) {
	u := &sdcUnit{source: "fresh (in-memory)"}
	if dir == "" {
		log.Info("initialising SDC (encrypting budget matrix)", "issuer", issuer,
			"channels", params.Watch.Channels, "blocks", params.Watch.Grid.Blocks())
		sdc, err := pisa.NewSDC(issuer, params, nil, stp, opts...)
		if err != nil {
			return nil, err
		}
		u.sdc = sdc
		return u, nil
	}
	storeOpts, err := cfg.Store.Options()
	if err != nil {
		return nil, err
	}
	st, err := store.Open(dir, storeOpts)
	if err != nil {
		return nil, err
	}
	rec := st.Recovery()
	u.st, u.source = st, rec.Source
	log.Info("recovering SDC state", "dir", st.Dir(), "source", rec.Source,
		"snapshotIndex", rec.SnapshotIndex, "tailRecords", rec.TailRecords,
		"tornBytes", rec.TornBytes)
	sdc, err := pisa.RestoreSDC(issuer, params, nil, stp, st.SnapshotData(), st.Tail(), opts...)
	if err != nil {
		st.Close()
		return nil, err
	}
	u.sdc = sdc
	u.keeper = store.NewKeeper(st, sdc.ExportState,
		cfg.Store.SnapshotInterval(), cfg.Store.SnapshotThreshold())
	// Journal armed only now, after replay: recovered updates are
	// already on disk and must not be re-appended.
	sdc.SetUpdateJournal(func(upd *pisa.PUUpdate) error {
		payload, err := pisa.EncodePUUpdate(upd)
		if err != nil {
			return err
		}
		_, err = u.keeper.Append(pisa.RecordPUUpdate, payload)
		return err
	})
	u.keeper.Start(func(err error) { log.Error("background snapshot failed", "err", err) })
	return u, nil
}

// logSummary emits the shutdown state digest: protocol counters,
// decision-cache effectiveness, and (when durable) WAL pressure plus
// where this process booted from. Sharded runs emit one line per
// shard, labelled with its index.
func logSummary(log *slog.Logger, sdc *pisa.SDC, st *store.Store, source string, sharded bool, index int) {
	sum := sdc.Summary()
	attrs := []any{}
	if sharded {
		lo, hi := sdc.ChannelWindow()
		attrs = append(attrs, "shard", index, "window", fmt.Sprintf("[%d,%d)", lo, hi))
	}
	attrs = append(attrs,
		"pus", sum.PUs,
		"blocksWithPUs", sum.BlocksWithPUs,
		"populatedCells", sum.PopulatedCells,
		"serial", sum.Serial,
		"bootSource", source,
	)
	cs := sdc.CacheStats()
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
	if st != nil {
		stats := st.Stats()
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
