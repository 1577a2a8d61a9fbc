// Command costpd operates the distributed-STP extension (the paper's
// §VII future work: no single trusted key holder).
//
// Dealer mode — run once at deployment setup; writes one share file
// per co-STP plus the group public key, then discards the secret:
//
//	costpd -deal 2 -out ./shares [-config pisa.json]
//
// Serve mode — run on each co-STP host:
//
//	costpd -share ./shares/share-1.gob -listen :7421 [-metrics host:port]
//
// With -metrics the daemon serves Prometheus metrics on /metrics and
// net/http/pprof on /debug/pprof/ (RPC server counters).
//
// Share files are secret key material: distribute them over secure
// channels and delete the dealer's copies after hand-off.
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
	"path/filepath"
	"syscall"

	"pisa/internal/config"
	"pisa/internal/node"
	"pisa/internal/obs"
	"pisa/internal/paillier"
	"pisa/internal/store"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "costpd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("costpd", flag.ContinueOnError)
	configPath := fs.String("config", "", "deployment config JSON (defaults built in)")
	deal := fs.Int("deal", 0, "dealer mode: number of shares to generate")
	out := fs.String("out", "shares", "dealer mode: output directory")
	sharePath := fs.String("share", "", "serve mode: share file to load")
	listen := fs.String("listen", "127.0.0.1:0", "serve mode: listen address")
	metricsAddr := fs.String("metrics", "", "serve mode: serve /metrics and /debug/pprof on this address (empty = disabled)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *deal > 0 && *sharePath != "":
		return errors.New("choose either -deal or -share, not both")
	case *deal > 0:
		return dealShares(*configPath, *deal, *out)
	case *sharePath != "":
		return serveShare(*sharePath, *listen, *metricsAddr)
	default:
		fs.Usage()
		return errors.New("either -deal or -share is required")
	}
}

// dealShares runs the trusted one-time key ceremony.
func dealShares(configPath string, count int, dir string) error {
	cfg, err := config.Load(configPath)
	if err != nil {
		return err
	}
	params, err := cfg.PisaParams()
	if err != nil {
		return err
	}
	fmt.Printf("generating %d-bit group key and splitting into %d shares...\n",
		params.PaillierBits, count)
	sk, err := paillier.GenerateKey(nil, params.PaillierBits)
	if err != nil {
		return err
	}
	shares, err := sk.SplitKey(nil, count)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return err
	}
	for i, share := range shares {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(share); err != nil {
			return fmt.Errorf("encode share %d: %w", i+1, err)
		}
		path := filepath.Join(dir, fmt.Sprintf("share-%d.gob", i+1))
		if err := store.WriteFileAtomic(path, 0o600, buf.Bytes()); err != nil {
			return err
		}
		fmt.Println("wrote", path)
	}
	var pub bytes.Buffer
	if err := gob.NewEncoder(&pub).Encode(sk.Public()); err != nil {
		return fmt.Errorf("encode group key: %w", err)
	}
	pubPath := filepath.Join(dir, "group-public.gob")
	if err := store.WriteFileAtomic(pubPath, 0o644, pub.Bytes()); err != nil {
		return err
	}
	fmt.Println("wrote", pubPath)
	fmt.Println("distribute the share files securely, then delete this directory")
	return nil
}

// serveShare loads a share file and answers partial decryptions.
func serveShare(path, listen, metricsAddr string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var share paillier.KeyShare
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&share); err != nil {
		return fmt.Errorf("decode share file: %w", err)
	}
	log := slog.New(slog.NewTextHandler(os.Stderr, nil))
	if metricsAddr != "" {
		obsSrv, err := obs.ListenAndServe(metricsAddr, nil)
		if err != nil {
			return err
		}
		defer obsSrv.Close()
		log.Info("metrics serving", "addr", obsSrv.Addr(), "endpoints", "/metrics /debug/pprof/")
	}
	srv := node.NewShareServer(&share, log, 0)
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	log.Info("co-STP serving", "addr", ln.Addr().String(), "share", share.Index)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case s := <-sig:
		log.Info("shutting down", "signal", s.String())
		return srv.Close()
	case err := <-errCh:
		return err
	}
}
