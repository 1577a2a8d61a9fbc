package config

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
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
	if opts.PoolSize != 4 || opts.Retry.MaxAttempts != 4 || opts.Breaker.FailureThreshold != 3 {
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

func TestSTPTargets(t *testing.T) {
	f := Default()
	if got := f.STPTargets(); len(got) != 1 || got[0] != f.STPAddr {
		t.Errorf("targets = %v", got)
	}
	f.STPAddrs = []string{"10.0.0.2:7411", f.STPAddr, "", "10.0.0.2:7411"}
	got := f.STPTargets()
	want := []string{f.STPAddr, "10.0.0.2:7411"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("targets = %v, want %v (deduplicated, empties dropped)", got, want)
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

func TestBackendName(t *testing.T) {
	f := Default()
	if name, err := f.BackendName(); err != nil || name != BackendPISA {
		t.Errorf("default backend = %q, %v; want %q", name, err, BackendPISA)
	}
	f.Backend = "pir"
	if name, err := f.BackendName(); err != nil || name != BackendPIR {
		t.Errorf("pir backend = %q, %v", name, err)
	}
	f.Backend = "carrier-pigeon"
	if _, err := f.BackendName(); err == nil {
		t.Error("unknown backend accepted")
	}
}

func TestPIRSpecTargets(t *testing.T) {
	p := PIRSpec{Addrs: []string{"a:1", "", "b:2", "a:1"}}
	want := []string{"a:1", "b:2"}
	if got := p.Targets(); !reflect.DeepEqual(got, want) {
		t.Errorf("Targets = %v, want %v (deduplicated, empties dropped)", got, want)
	}
	if got := (PIRSpec{}).Targets(); len(got) != 0 {
		t.Errorf("empty spec targets = %v", got)
	}
}

func TestPIRMinEIRPUnits(t *testing.T) {
	f := Default()
	wp, err := f.WatchParams()
	if err != nil {
		t.Fatal(err)
	}
	if got := (PIRSpec{}).MinEIRPUnits(wp); got != 0 {
		t.Errorf("zero threshold = %d, want 0 (cap fallback)", got)
	}
	spec := PIRSpec{MinEIRPmW: 100}
	if got, want := spec.MinEIRPUnits(wp), wp.Quantize(100); got != want {
		t.Errorf("MinEIRPUnits = %d, want %d", got, want)
	}
}

// TestSaveLoadRoundTripBackendPIR covers the new backend/pir sections:
// every field must survive Save then Load.
func TestSaveLoadRoundTripBackendPIR(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pir.json")
	f := Default()
	f.Backend = BackendPIR
	f.PIR = PIRSpec{
		Addrs:       []string{"10.0.0.1:7420", "10.0.0.2:7420", "10.0.0.3:7420", "10.0.0.4:7420"},
		K:           3,
		MinEIRPmW:   250,
		BloomBits:   2048,
		BloomHashes: 7,
	}
	if err := f.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !reflect.DeepEqual(got, f) {
		t.Errorf("round trip changed the config:\n got %+v\nwant %+v", got, f)
	}
	if name, err := got.BackendName(); err != nil || name != BackendPIR {
		t.Errorf("backend after round trip = %q, %v", name, err)
	}
	// A config written before the backend existed loads as PISA with
	// the default replica fleet (Load starts from Default()).
	legacy := filepath.Join(t.TempDir(), "legacy.json")
	if err := os.WriteFile(legacy, []byte(`{"channels": 5}`), 0o644); err != nil {
		t.Fatal(err)
	}
	old, err := Load(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if name, _ := old.BackendName(); name != BackendPISA {
		t.Errorf("legacy config backend = %q", name)
	}
	if len(old.PIR.Targets()) == 0 {
		t.Error("legacy config lost the default PIR fleet")
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

func TestParseCacheDomainsFlag(t *testing.T) {
	domains, err := ParseCacheDomainsFlag("fleet-a=su1, su2;fleet-b=su3")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{"fleet-a": {"su1", "su2"}, "fleet-b": {"su3"}}
	if !reflect.DeepEqual(domains, want) {
		t.Fatalf("parsed %v, want %v", domains, want)
	}
	for _, v := range []string{"", "off", "OFF", " ; "} {
		if got, err := ParseCacheDomainsFlag(v); err != nil || got != nil {
			t.Errorf("%q: got (%v, %v), want (nil, nil)", v, got, err)
		}
	}
	for _, v := range []string{"nodomain", "=su1", "fleet=", "fleet=su1;fleet=su2"} {
		if _, err := ParseCacheDomainsFlag(v); err == nil {
			t.Errorf("%q: invalid declaration accepted", v)
		}
	}
}

func TestCacheDomainsReachParams(t *testing.T) {
	f := Default()
	f.CacheDomains = map[string][]string{"fleet": {"su1", "su2"}}
	p, err := f.PisaParams()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.CacheDomains, f.CacheDomains) {
		t.Fatalf("params carry %v, want %v", p.CacheDomains, f.CacheDomains)
	}
	f.CacheDomains = map[string][]string{"a": {"dup"}, "b": {"dup"}}
	if _, err := f.PisaParams(); err == nil {
		t.Fatal("duplicate domain membership accepted")
	}
}

// TestLoadRefusesRemovedBehaviour: a file that asks for the unpacked
// layout, for sign-test coalescing, for a cache TTL, for a switched-off
// or resized nonce table or for a kernel worker count must not silently
// run without them; the values every file saved by an earlier build
// contains ("packing": true, "fastExp": true, "parallelism": -1, zeros)
// ask for what is still there and keep loading, as does a file without
// the keys.
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
		{"saved by an earlier build", `{"channels": 5, "packing": true, "stpBatchWindowMS": 0, "stpBatchMax": 0, "cacheTTLSec": 0, "fastExp": true, "parallelism": -1}`, ""},
		{"without the keys", `{"channels": 5}`, ""},
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
		})
	}
}
