// Command sdcrouterd fronts a multi-host channel-sharded SDC
// deployment (DESIGN.md §15): it fans each SU transmission request
// out to every shard daemon (sdcd -shard-index i -shard-count n) in
// parallel, collects the encrypted grant indicators each shard's own
// blind/sign-test pass produced, and issues the single license masked
// with every one of them — they are never added up (pisa.ShardAnswer).
// PU updates are broadcast to every shard — the active channel is
// encrypted, so routing by channel would leak it. The router is the
// same pisa.Router that a monolithic sdcd runs as the one-shard router
// over its SDC, here over remote shards.
//
// The -shards flag takes one address per shard, semicolon-separated in
// window order; a comma list is refused (no replica groups, DESIGN.md §9).
// Shard queries are idempotent, so the client retries them with backoff
// and re-dials a shard restarted from its store on the same address.
//
// Usage:
//
//	sdcrouterd -shards "h1:9101;h2:9102;h3:9103"
//	           [-config pisa.json] [-listen host:port]
//	           [-stp host:port] [-issuer name]
//	           [-metrics host:port]
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
	"pisa/internal/node"
	"pisa/internal/obs"
	"pisa/internal/pisa"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sdcrouterd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("sdcrouterd", flag.ContinueOnError)
	configPath := fs.String("config", "", "deployment config JSON (defaults built in)")
	listen := fs.String("listen", "", "listen address (overrides config sdcAddr)")
	stpAddr := fs.String("stp", "", "STP address (overrides config stpAddr)")
	issuer := fs.String("issuer", "pisa-sdc", "license issuer name")
	metricsAddr := fs.String("metrics", "", "serve /metrics and /debug/pprof on this address (empty = disabled)")
	shardFlag := fs.String("shards", "", "shard addresses 'addr1;addr2;...', one per channel shard in window order")
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
	shards, err := config.ParseShardFlag(*shardFlag)
	if err != nil {
		return err
	}
	if len(shards) == 0 {
		return fmt.Errorf("-shards is required (semicolon-separated shard addresses)")
	}
	addr := cmp.Or(*listen, cfg.SDCAddr)
	stpTarget = cmp.Or(stpTarget, cfg.STPAddr)
	rpcOpts, err := cfg.RPC.Options()
	if err != nil {
		return err
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

	log.Info("connecting to STP", "addr", stpTarget)
	stp, err := node.DialSTPWith(rpcOpts, stpTarget)
	if err != nil {
		return err
	}
	defer stp.Close()

	services := make([]pisa.ShardService, len(shards))
	clients := make([]*node.SDCClient, len(shards))
	for i, a := range shards {
		clients[i] = node.DialSDCWith(rpcOpts, a)
		defer clients[i].Close()
		services[i] = clients[i]
	}
	start := time.Now()
	router, err := pisa.NewRouter(*issuer, params, nil, stp, services)
	if err != nil {
		return err
	}
	log.Info("router assembled", "shards", len(shards), "took", time.Since(start).String())
	for i, a := range shards {
		lo, hi := router.Window(i)
		log.Info("shard", "index", i, "window", fmt.Sprintf("[%d,%d)", lo, hi), "addr", a)
	}

	srv := node.NewSDCServer(router, log, 0)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	log.Info("router serving", "addr", ln.Addr().String())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case s := <-sig:
		log.Info("shutting down", "signal", s.String())
		for i, c := range clients {
			cs := c.Stats()
			log.Info("shard client summary", "shard", i, "calls", cs.Calls, "retries", cs.Retries,
				"transportFaults", cs.TransportFaults)
		}
		return srv.Close()
	case err := <-errCh:
		return err
	}
}
