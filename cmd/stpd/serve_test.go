package main

import (
	"crypto/rand"
	"math/big"
	"net"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"

	"pisa/internal/config"
	"pisa/internal/node"
	"pisa/internal/paillier"
	"pisa/internal/pisa"
)

// TestRunServesAndRestarts boots stpd on a state directory and a key
// file, registers an SU over the wire and checks that a sign conversion
// opens under the SU's key; then stops the daemon with SIGTERM and boots
// it again on the same -store and -key. The restarted daemon still holds
// the SU's key, and concurrent conversions into it — the first nonces
// drawn under a key restored from the registry — build its table once
// and stay on the short decryption path throughout.
func TestRunServesAndRestarts(t *testing.T) {
	if testing.Short() {
		t.Skip("spins a real daemon twice")
	}
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "pisa.json")
	cfg := config.Default()
	testKeys(&cfg)
	if err := cfg.Save(cfgPath); err != nil {
		t.Fatal(err)
	}
	boot := func() (*node.STPClient, chan error) {
		t.Helper()
		probe, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := probe.Addr().String()
		probe.Close()
		done := make(chan error, 1)
		go func() {
			done <- run([]string{"-config", cfgPath, "-listen", addr,
				"-store", filepath.Join(dir, "state"), "-key", filepath.Join(dir, "group.key")})
		}()
		deadline := time.Now().Add(60 * time.Second)
		for {
			cli, err := node.DialSTP(addr, 10*time.Second)
			if err == nil {
				return cli, done
			}
			if time.Now().After(deadline) {
				t.Fatalf("stpd never became ready: %v", err)
			}
			select {
			case err := <-done:
				t.Fatalf("stpd exited during startup: %v", err)
			case <-time.After(100 * time.Millisecond):
			}
		}
	}
	stop := func(done chan error) {
		t.Helper()
		if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("graceful shutdown: %v", err)
			}
		case <-time.After(60 * time.Second):
			t.Fatal("stpd did not exit on SIGTERM")
		}
	}

	su, err := paillier.GenerateKey(rand.Reader, 768)
	if err != nil {
		t.Fatal(err)
	}
	// convert runs n concurrent sign conversions for the SU and checks
	// each answer opens to the sign of a negative blinded value. It
	// returns how many nonce tables they built: the daemon runs in this
	// process, so its first nonce under the SU's key counts here.
	convert := func(cli *node.STPClient, n int) uint64 {
		t.Helper()
		reqs := make([]*pisa.SignRequest, n)
		for i := range reqs {
			v, err := cli.GroupKey().Encrypt(rand.Reader, big.NewInt(-9))
			if err != nil {
				t.Fatal(err)
			}
			reqs[i] = &pisa.SignRequest{SUID: "su-1", V: []*paillier.Ciphertext{v}, Slots: 1, SlotBits: 64, AnswerBits: 64}
		}
		tables := paillier.NonceTables()
		var wg sync.WaitGroup
		for _, req := range reqs {
			wg.Add(1)
			go func(req *pisa.SignRequest) {
				defer wg.Done()
				resp, err := cli.ConvertSigns(req)
				if err != nil {
					t.Errorf("ConvertSigns: %v", err)
					return
				}
				if m, err := su.DecryptInt(resp.X[0]); err != nil || m != -1 {
					t.Errorf("answer opens to %d (err %v), want -1", m, err)
				}
			}(req)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		return paillier.NonceTables() - tables
	}
	_, full := paillier.Decrypts()

	cli, done := boot()
	if err := cli.RegisterSU("su-1", su.Public()); err != nil {
		t.Fatal(err)
	}
	if built := convert(cli, 1); built != 1 {
		t.Fatalf("first conversion built %d nonce tables, want the SU key's one", built)
	}
	cli.Close()
	stop(done)

	cli, done = boot()
	defer stop(done)
	defer cli.Close()
	restored, err := cli.SUKey("su-1")
	if err != nil {
		t.Fatal(err)
	}
	if !restored.SameKey(su.Public()) {
		t.Fatal("restarted stpd lost the SU's key or its nonce base")
	}
	if built := convert(cli, 4); built != 1 {
		t.Fatalf("concurrent first conversions into a restored key built %d nonce tables, want 1", built)
	}
	if _, now := paillier.Decrypts(); now != full {
		t.Fatalf("%d decryptions took the full exponent (pisa_paillier_decrypt_total{path=\"full\"}), want 0", now-full)
	}
}

// testKeys sets test-size crypto widths: config.Default() carries the
// paper's 2048-bit keys.
func testKeys(cfg *config.File) {
	cfg.PaillierBits, cfg.PlaintextBits, cfg.SignerBits = 768, 60, 512
	cfg.AlphaBits, cfg.BetaBits, cfg.EtaBits = 128, 64, 64
}
