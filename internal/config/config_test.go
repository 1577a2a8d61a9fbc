package config

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"pisa/internal/pisa"
)

func TestDefaultBuilds(t *testing.T) {
	f := Default()
	if _, err := f.WatchParams(); err != nil {
		t.Fatalf("default WatchParams: %v", err)
	}
	if _, err := f.PisaParams(); err != nil {
		t.Fatalf("default PisaParams: %v", err)
	}
}

// TestLoadWithoutCryptoKeysUsesPaperWidths: a file that names no crypto
// widths runs at pisa.DefaultParams' — 2048-bit Paillier and Table I's
// blinding widths — not at test-size keys, and Default() and Paper()
// differ only in the grid.
func TestLoadWithoutCryptoKeysUsesPaperWidths(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pisa.json")
	if err := os.WriteFile(path, []byte(`{"channels": 5, "sdcAddr": "127.0.0.1:7510"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.PisaParams()
	if err != nil {
		t.Fatal(err)
	}
	want := pisa.DefaultParams(got.Watch)
	if got.PaillierBits != 2048 || got.PaillierBits != want.PaillierBits ||
		got.PlaintextBits != want.PlaintextBits || got.SignerBits != want.SignerBits ||
		got.AlphaBits != want.AlphaBits || got.BetaBits != want.BetaBits || got.EtaBits != want.EtaBits {
		t.Errorf("widths Paillier %d, plaintext %d, signer %d, α %d, β %d, η %d; want pisa.DefaultParams' %d, %d, %d, %d, %d, %d",
			got.PaillierBits, got.PlaintextBits, got.SignerBits, got.AlphaBits, got.BetaBits, got.EtaBits,
			want.PaillierBits, want.PlaintextBits, want.SignerBits, want.AlphaBits, want.BetaBits, want.EtaBits)
	}
	paper := Paper()
	paper.Channels, paper.GridCols, paper.GridRows = Default().Channels, Default().GridCols, Default().GridRows
	if !reflect.DeepEqual(paper, Default()) {
		t.Errorf("Paper() differs from Default() beyond the grid:\n%+v\n%+v", paper, Default())
	}
}

func TestPaperBuilds(t *testing.T) {
	f := Paper()
	p, err := f.PisaParams()
	if err != nil {
		t.Fatalf("paper PisaParams: %v", err)
	}
	if p.PaillierBits != 2048 {
		t.Errorf("paper PaillierBits = %d", p.PaillierBits)
	}
	if p.Watch.Channels != 100 || p.Watch.Grid.Blocks() != 600 {
		t.Errorf("paper geometry %dx%d, want 100x600", p.Watch.Channels, p.Watch.Grid.Blocks())
	}
	// Table I: 60-bit representation.
	if p.PlaintextBits != 60 {
		t.Errorf("paper PlaintextBits = %d, want 60", p.PlaintextBits)
	}
	// pisa.DefaultParams' blinding widths, which pack k = 12 slots.
	if p.AlphaBits != 100 || p.BetaBits != 80 {
		t.Errorf("paper AlphaBits, BetaBits = %d, %d, want 100, 80", p.AlphaBits, p.BetaBits)
	}
	if k := p.PackSlots(); k != 12 {
		t.Errorf("paper PackSlots() = %d, want 12", k)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pisa.json")
	f := Default()
	f.Channels = 7
	f.SDCAddr = "10.0.0.1:99"
	if err := f.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.Channels != 7 || got.SDCAddr != "10.0.0.1:99" {
		t.Errorf("round trip lost fields: %+v", got)
	}
	if got.UnitsPerMW != f.UnitsPerMW {
		t.Errorf("defaults not preserved")
	}
}

func TestLoadEmptyPathIsDefault(t *testing.T) {
	got, err := Load("")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, Default()) {
		t.Error("empty path did not return defaults")
	}
}

func TestRPCSpecOptions(t *testing.T) {
	opts, err := Default().RPC.Options()
	if err != nil {
		t.Fatalf("default RPC options: %v", err)
	}
	if opts.DialTimeout != 10*time.Second || opts.CallTimeout != 5*time.Minute {
		t.Errorf("timeouts %v/%v", opts.DialTimeout, opts.CallTimeout)
	}
	if opts.PoolSize != 4 || opts.Retry.MaxAttempts != 4 {
		t.Errorf("defaults lost: %+v", opts)
	}
	if _, err := (RPCSpec{RetryAttempts: -1}).Options(); err == nil {
		t.Error("negative retry attempts accepted")
	}
	// The zero spec is valid: node fills its own defaults.
	if _, err := (RPCSpec{}).Options(); err != nil {
		t.Errorf("zero RPC spec rejected: %v", err)
	}
}

func TestSplitAddrs(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want []string
	}{
		{"mixed", " 10.0.0.1:7411, ,10.0.0.2:7411 ,", []string{"10.0.0.1:7411", "10.0.0.2:7411"}},
		{"empty", "", nil},
		{"only-commas", ",,,", nil},
		{"only-whitespace", "  \t ", nil},
		{"whitespace-between-commas", " , \t,  ", nil},
		{"single", "10.0.0.1:7411", []string{"10.0.0.1:7411"}},
		{"trailing-comma", "a:1,b:2,", []string{"a:1", "b:2"}},
		{"leading-comma", ",a:1", []string{"a:1"}},
		{"surrounding-whitespace", "\t a:1 \t", []string{"a:1"}},
		{"tabs-and-newlines", "a:1,\n b:2\t,\nc:3", []string{"a:1", "b:2", "c:3"}},
		{"duplicates-kept", "a:1,a:1", []string{"a:1", "a:1"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := SplitAddrs(c.in); !reflect.DeepEqual(got, c.want) {
				t.Errorf("SplitAddrs(%q) = %v, want %v", c.in, got, c.want)
			}
		})
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load("/nonexistent/nope.json"); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad); err == nil {
		t.Error("malformed JSON accepted")
	}
}

func TestModelSpecBuild(t *testing.T) {
	specs := []ModelSpec{
		{Type: "free-space", FreqMHz: 600},
		{Type: "log-distance", RefLossDB: 40, Exponent: 3},
		{Type: "extended-hata", FreqMHz: 600, BaseHeight: 100, MobileHeight: 1.5},
		{Type: "log-distance", RefLossDB: 40, Exponent: 3, ShadowSigmaDB: 8, ShadowSeed: 5},
	}
	for i, spec := range specs {
		m, err := spec.Build()
		if err != nil {
			t.Errorf("spec %d: %v", i, err)
			continue
		}
		if m.LossDB(1000) <= 0 {
			t.Errorf("spec %d: implausible loss", i)
		}
	}
	if _, err := (ModelSpec{Type: "warp-drive"}).Build(); err == nil {
		t.Error("unknown model type accepted")
	}
}

// TestLoadRefusesRemovedBehaviour: a file that asks for the unpacked
// layout, for sign-test coalescing, for a cache TTL, for a switched-off
// or resized nonce table, for a kernel worker count, for an in-process
// channel partition, for cache entries shared across SUs, for a
// backend other than PISA or for STP replicas must not silently run
// without them; the values every file saved by an earlier build
// contains ("packing": true, "fastExp": true, "parallelism": -1, zeros,
// "backend": "pisa", the default "pir" section and the "rpc" breaker
// keys), "shards": 1, an empty "cacheDomains" and an empty "stpAddrs"
// ask for what is still there and keep loading, as does a file without
// the keys. The "store" fsync keys an earlier build saved are ignored:
// every append is synced (internal/deploy's TestSavedFsyncKeysSyncEveryAppend
// opens a store from such a file).
func TestLoadRefusesRemovedBehaviour(t *testing.T) {
	for _, tc := range []struct {
		name, body, want string
	}{
		{"unpacked", `{"packing": false}`, `"packing"`},
		{"batch window", `{"stpBatchWindowMS": 5}`, `"stpBatchWindowMS"`},
		{"batch cap", `{"stpBatchMax": 8}`, `"stpBatchMax"`},
		{"cache ttl", `{"cacheTTLSec": 60}`, `"cacheTTLSec"`},
		{"no nonce table", `{"fastExp": false}`, `"fastExp"`},
		{"table window", `{"fastExpWindow": 4}`, `"fastExpWindow"`},
		{"short exponent", `{"shortExpBits": 128}`, `"shortExpBits"`},
		{"serial kernels", `{"parallelism": 0}`, `"parallelism"`},
		{"four kernel workers", `{"parallelism": 4}`, `"parallelism"`},
		{"in-process partition", `{"shards": 2}`, `"shards"`},
		{"no partition", `{"channels": 5, "shards": 0}`, ""},
		{"one window", `{"channels": 5, "shards": 1}`, ""},
		{"cache domains", `{"cacheDomains": {"fleet": ["su1", "su2"]}}`, `"cacheDomains"`},
		{"no cache domains", `{"channels": 5, "cacheDomains": {}}`, ""},
		{"pir backend", `{"backend": "pir"}`, `"backend"`},
		{"unknown backend", `{"backend": "smoke-signals"}`, `"backend"`},
		{"stp replicas", `{"stpAddrs": ["127.0.0.1:7412"]}`, `"stpAddrs"`},
		{"no stp replicas", `{"channels": 5, "stpAddrs": []}`, ""},
		{"saved by an earlier build", `{"channels": 5, "packing": true, "stpBatchWindowMS": 0, "stpBatchMax": 0, "cacheTTLSec": 0, "fastExp": true, "parallelism": -1, "backend": "pisa", "pir": {"addrs": ["127.0.0.1:7420", "127.0.0.1:7421", "127.0.0.1:7422"]}, "rpc": {"retryAttempts": 4, "breakerFailures": 3, "breakerCooldownMS": 3000}}`, ""},
		{"without the keys", `{"channels": 5}`, ""},
		{"interval fsync saved by an earlier build", `{"channels": 5, "store": {"dir": "state", "fsync": "interval", "fsyncIntervalMS": 100}}`, ""},
		{"never fsync saved by an earlier build", `{"channels": 5, "store": {"fsync": "never"}}`, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "pisa.json")
			if err := os.WriteFile(path, []byte(tc.body), 0o644); err != nil {
				t.Fatal(err)
			}
			f, err := Load(path)
			if tc.want == "" {
				if err != nil || f.Channels != 5 {
					t.Fatalf("Load = %+v, %v; want the file loaded", f.Channels, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "removed") {
				t.Fatalf("Load error = %v, want a refusal naming %s", err, tc.want)
			}
			if tc.want == `"shards"` && !strings.Contains(err.Error(), "sdcrouterd") {
				t.Fatalf("Load error = %v, want the migration to sdcrouterd", err)
			}
			if tc.want == `"backend"` && !strings.Contains(err.Error(), "pisaload -backend pir") {
				t.Fatalf("Load error = %v, want the pointer to pisaload -backend pir", err)
			}
		})
	}
}

// TestParseCacheFlag: -cache takes "off" in any case or a whole
// non-negative number and nothing else; a value with trailing input is
// refused, not read up to its first non-digit.
func TestParseCacheFlag(t *testing.T) {
	for in, want := range map[string]int{"off": 0, "OFF": 0, "0": 0, "256": 256} {
		if got, err := ParseCacheFlag(in); err != nil || got != want {
			t.Errorf("ParseCacheFlag(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, in := range []string{"12abc", "1e3", "-1", "", "many"} {
		if got, err := ParseCacheFlag(in); err == nil {
			t.Errorf("ParseCacheFlag(%q) = %d, want an error", in, got)
		} else if !strings.Contains(err.Error(), "-cache") {
			t.Errorf("ParseCacheFlag(%q): %v, want an error naming -cache", in, err)
		}
	}
}
