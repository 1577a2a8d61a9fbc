// Command stpd runs the semi-trusted third party: it generates (and
// holds) the group Paillier key, registers SU public keys, and
// performs the blinded sign-test key conversion for the SDC.
//
// The group key persists via -key (its own restricted file — losing
// it invalidates every ciphertext in the deployment). With -store the
// SU key registry is durable too: registrations are journalled to a
// WAL and compacted into snapshots, so a restart keeps every SU
// enrolled.
//
// For failover, run several stpd processes with the SAME -key file
// (so they serve one group key) and list them all in the clients'
// stpAddrs config or -stp flags: clients register SUs with every
// replica and rotate to the next address when one stops answering.
// Replicas with distinct keys are NOT interchangeable — a client that
// failed over between them would mix ciphertext domains.
//
// Usage:
//
//	stpd [-config pisa.json] [-listen host:port] [-key group.key] [-store dir]
//	     [-metrics host:port]
//
// With -metrics (or an obs.metricsAddr in the config) the daemon
// serves Prometheus metrics on /metrics and net/http/pprof on
// /debug/pprof/: RPC server counters, WAL timings for the SU
// registry, and nonce-pool health.
package main

import (
	"bytes"
	"encoding/gob"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"syscall"

	"pisa/internal/config"
	"pisa/internal/node"
	"pisa/internal/obs"
	"pisa/internal/paillier"
	"pisa/internal/pisa"
	"pisa/internal/store"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "stpd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("stpd", flag.ContinueOnError)
	configPath := fs.String("config", "", "deployment config JSON (defaults built in)")
	listen := fs.String("listen", "", "listen address (overrides config stpAddr)")
	keyPath := fs.String("key", "", "group key file; loaded if present, created otherwise (restart-safe)")
	storeDir := fs.String("store", "", "state directory for the SU registry WAL + snapshots (empty = in-memory)")
	metricsAddr := fs.String("metrics", "", "serve /metrics and /debug/pprof on this address (overrides config obs.metricsAddr; empty = disabled)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := config.Load(*configPath)
	if err != nil {
		return err
	}
	addr := cfg.STPAddr
	if *listen != "" {
		addr = *listen
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
	group, err := loadOrCreateKey(*keyPath, params.PaillierBits, log)
	if err != nil {
		return err
	}
	stp := pisa.NewSTPWithKey(nil, group)
	if *storeDir != "" {
		opts, err := cfg.Store.Options()
		if err != nil {
			return err
		}
		st, err := store.Open(*storeDir, opts)
		if err != nil {
			return err
		}
		defer st.Close()
		rec := st.Recovery()
		log.Info("recovering SU registry", "dir", st.Dir(), "source", rec.Source,
			"tailRecords", rec.TailRecords, "tornBytes", rec.TornBytes)
		if err := stp.RestoreRegistry(st.SnapshotData(), st.Tail()); err != nil {
			return err
		}
		log.Info("SU registry recovered", "sus", stp.RegisteredSUs())
		keeper := store.NewKeeper(st, stp.ExportRegistry,
			cfg.Store.SnapshotInterval(), cfg.Store.SnapshotThreshold())
		stp.SetRegistrationJournal(func(id string, pk *paillier.PublicKey) error {
			payload, err := pisa.EncodeSURegistration(id, pk)
			if err != nil {
				return err
			}
			_, err = keeper.Append(pisa.RecordSURegistration, payload)
			return err
		})
		keeper.Start(func(err error) { log.Error("background snapshot failed", "err", err) })
		defer keeper.Stop()
		defer func() {
			keeper.Stop()
			if err := keeper.Snapshot(); err != nil {
				log.Error("final snapshot failed", "err", err)
			}
		}()
	}
	srv := node.NewSTPServer(stp, log, 0)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	log.Info("STP serving", "addr", ln.Addr().String())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case s := <-sig:
		log.Info("shutting down", "signal", s.String())
		stats := srv.Stats()
		log.Info("server summary", "connections", stats.Connections,
			"requests", stats.Requests, "errors", stats.Errors,
			"sus", stp.RegisteredSUs())
		// decryptFull > 0 names a sender whose nonces are not powers of
		// the group key's H: one holding the group key without H (it
		// tables a private base), or budgets from a snapshot that predates
		// H. nonceTables counts the SU keys answers were encrypted under.
		short, full := paillier.Decrypts()
		log.Info("paillier summary", "decryptShort", short, "decryptFull", full,
			"nonceTables", paillier.NonceTables(),
			"fullWidthNonces", paillier.FullWidthNonces())
		return srv.Close()
	case err := <-errCh:
		return err
	}
}

// loadOrCreateKey restores the group key from keyPath, or generates a
// fresh one (persisting it when a path was given). Losing the group
// key invalidates every ciphertext in the deployment, so production
// runs should always pass -key.
func loadOrCreateKey(keyPath string, bits int, log *slog.Logger) (*paillier.PrivateKey, error) {
	if keyPath != "" {
		if raw, err := os.ReadFile(keyPath); err == nil {
			var sk paillier.PrivateKey
			if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&sk); err != nil {
				return nil, fmt.Errorf("decode %s: %w", keyPath, err)
			}
			log.Info("loaded group key", "path", keyPath, "bits", sk.N.BitLen())
			return &sk, nil
		} else if !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
	}
	log.Info("generating group key", "bits", bits)
	sk, err := paillier.GenerateKey(nil, bits)
	if err != nil {
		return nil, err
	}
	if keyPath != "" {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(sk); err != nil {
			return nil, fmt.Errorf("encode key: %w", err)
		}
		if err := os.WriteFile(keyPath, buf.Bytes(), 0o600); err != nil {
			return nil, err
		}
		log.Info("persisted group key", "path", keyPath)
	}
	return sk, nil
}
