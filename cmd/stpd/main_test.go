package main

import (
	"errors"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"testing"
)

func TestRunRejectsBadConfigPath(t *testing.T) {
	if err := run([]string{"-config", "/nonexistent/pisa.json"}); err == nil {
		t.Fatal("missing config accepted")
	}
}

func TestRunRejectsBadListenAddress(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a key before binding")
	}
	if err := run([]string{"-listen", "256.0.0.1:bogus"}); err == nil {
		t.Fatal("bogus listen address accepted")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-no-such-flag"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

func TestLoadOrCreateKeyPersists(t *testing.T) {
	if testing.Short() {
		t.Skip("generates keys")
	}
	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	path := filepath.Join(t.TempDir(), "group.key")
	a, err := loadOrCreateKey(path, 256, log)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	b, err := loadOrCreateKey(path, 256, log)
	if err != nil {
		t.Fatalf("reload: %v", err)
	}
	if a.N.Cmp(b.N) != 0 {
		t.Fatal("reloaded key differs; restart would orphan all ciphertexts")
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode().Perm() != 0o600 {
		t.Errorf("key file mode %v, want 0600", info.Mode().Perm())
	}
	// The key is written to a temp sibling and renamed into place: no
	// temp file is left behind, and a torn temp file from a crash
	// mid-write is never read as the key.
	if entries, err := os.ReadDir(filepath.Dir(path)); err != nil || len(entries) != 1 {
		t.Fatalf("key dir holds %v (%v), want the key file alone", entries, err)
	}
	torn := filepath.Join(t.TempDir(), "group.key")
	if err := os.WriteFile(torn+".tmp", []byte("half a key"), 0o600); err != nil {
		t.Fatal(err)
	}
	c, err := loadOrCreateKey(torn, 256, log)
	if err != nil {
		t.Fatalf("create beside a torn temp file: %v", err)
	}
	d, err := loadOrCreateKey(torn, 256, log)
	if err != nil || c.N.Cmp(d.N) != 0 {
		t.Fatalf("reload beside a torn temp file: %v", err)
	}
	if _, err := os.Stat(torn + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("torn temp file still present after the key was written: %v", err)
	}
	// Corrupt file must be rejected, not silently regenerated.
	if err := os.WriteFile(path, []byte("junk"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := loadOrCreateKey(path, 256, log); err == nil {
		t.Fatal("corrupt key file accepted")
	}
	// Empty path: ephemeral key, no file.
	if _, err := loadOrCreateKey("", 256, log); err != nil {
		t.Fatalf("ephemeral: %v", err)
	}
}
