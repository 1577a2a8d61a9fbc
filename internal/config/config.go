// Package config loads and validates the deployment configuration
// shared by every PISA process (SDC, STP, PU and SU tools must agree
// on the radio and crypto parameters out of band; only protocol
// messages travel over the network).
package config

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"pisa/internal/geo"
	"pisa/internal/node"
	"pisa/internal/pisa"
	"pisa/internal/propagation"
	"pisa/internal/store"
	"pisa/internal/watch"
)

// ModelSpec selects and parameterises a path-loss model by name.
type ModelSpec struct {
	// Type is one of "free-space", "log-distance", "extended-hata".
	Type string `json:"type"`
	// FreqMHz applies to free-space and extended-hata.
	FreqMHz float64 `json:"freqMHz,omitempty"`
	// RefLossDB, RefDistance and Exponent apply to log-distance.
	RefLossDB   float64 `json:"refLossDB,omitempty"`
	RefDistance float64 `json:"refDistance,omitempty"`
	Exponent    float64 `json:"exponent,omitempty"`
	// BaseHeight and MobileHeight apply to extended-hata.
	BaseHeight   float64 `json:"baseHeight,omitempty"`
	MobileHeight float64 `json:"mobileHeight,omitempty"`
	// ShadowSigmaDB, when non-zero, wraps the model in deterministic
	// terrain shadowing with the given deviation.
	ShadowSigmaDB float64 `json:"shadowSigmaDB,omitempty"`
	// ShadowSeed decorrelates shadowing fields.
	ShadowSeed uint64 `json:"shadowSeed,omitempty"`
}

// Build instantiates the model.
func (m ModelSpec) Build() (propagation.Model, error) {
	var base propagation.Model
	switch m.Type {
	case "free-space":
		base = propagation.FreeSpace{FreqMHz: m.FreqMHz}
	case "log-distance":
		base = propagation.LogDistance{
			RefLossDB:   m.RefLossDB,
			RefDistance: m.RefDistance,
			Exponent:    m.Exponent,
		}
	case "extended-hata":
		base = propagation.ExtendedHata{
			FreqMHz:      m.FreqMHz,
			BaseHeight:   m.BaseHeight,
			MobileHeight: m.MobileHeight,
		}
	default:
		return nil, fmt.Errorf("config: unknown model type %q", m.Type)
	}
	if m.ShadowSigmaDB > 0 {
		return propagation.Shadowed{Base: base, SigmaDB: m.ShadowSigmaDB, Seed: m.ShadowSeed}, nil
	}
	return base, nil
}

// File is the on-disk deployment description.
type File struct {
	// Radio / allocation parameters (Table I of the paper).
	Channels        int     `json:"channels"`
	GridCols        int     `json:"gridCols"`
	GridRows        int     `json:"gridRows"`
	BlockSizeMeters float64 `json:"blockSizeMeters"`
	UnitsPerMW      float64 `json:"unitsPerMW"`
	SUMaxEIRPmW     float64 `json:"suMaxEIRPmW"`
	SMinPUmW        float64 `json:"sMinPUmW"`
	DeltaSINRdB     float64 `json:"deltaSINRdB"`
	DeltaRednDB     float64 `json:"deltaRednDB"`

	Secondary ModelSpec `json:"secondaryModel"`
	WorstCase ModelSpec `json:"worstCaseModel"`

	// Crypto parameters.
	PaillierBits  int `json:"paillierBits"`
	PlaintextBits int `json:"plaintextBits"`
	AlphaBits     int `json:"alphaBits"`
	BetaBits      int `json:"betaBits"`
	EtaBits       int `json:"etaBits"`
	SignerBits    int `json:"signerBits"`

	// CacheEntries bounds the SDC's encrypted-decision cache (LRU over
	// repeated requests; pisa.Params.CacheEntries). 0 disables it. Load
	// starts from Default(), which enables 1024 entries — an explicit
	// "cacheEntries": 0 (or the daemons' -cache=off) switches it off.
	CacheEntries int `json:"cacheEntries"`

	// Network addresses: one SDC and one STP (DESIGN.md §9).
	SDCAddr string `json:"sdcAddr"`
	STPAddr string `json:"stpAddr"`

	// RPC tunes the client resilience layer (internal/node): dial vs
	// call deadlines, retry budget, pool size.
	RPC RPCSpec `json:"rpc,omitempty"`

	// Store configures WAL + snapshot durability for the daemons. An
	// empty Dir (the default) runs in-memory only.
	Store StoreSpec `json:"store,omitempty"`

	// Obs configures the runtime observability listener (Prometheus
	// /metrics + pprof). Off unless an address is configured here or
	// via the -metrics flag.
	Obs ObsSpec `json:"obs,omitempty"`
}

// ObsSpec configures the observability HTTP listener (internal/obs):
// /metrics in Prometheus text format plus net/http/pprof under
// /debug/pprof/, on a port of its own so scrapes and profiles never
// contend with the protocol listener.
type ObsSpec struct {
	// MetricsAddr is the host:port to serve on (e.g. "127.0.0.1:9090";
	// ":0" picks a free port and logs it). Empty disables the listener.
	// The daemons' -metrics flag overrides this.
	MetricsAddr string `json:"metricsAddr,omitempty"`
}

// Enabled reports whether the observability listener was requested.
func (o ObsSpec) Enabled() bool { return o.MetricsAddr != "" }

// StoreSpec configures the internal/store durability layer. A daemon
// with an empty Dir keeps all state in memory and loses it on exit; with
// one, every WAL append is fsynced before it is acknowledged.
type StoreSpec struct {
	// Dir is the state directory (WAL segments + snapshots). The SDC
	// and STP must use distinct directories.
	Dir string `json:"dir,omitempty"`
	// SegmentBytes rotates WAL segments past this size; 0 uses the
	// store default (64 MiB).
	SegmentBytes int64 `json:"segmentBytes,omitempty"`
	// SnapshotIntervalSec snapshots after this much time has passed
	// with unsnapshotted records; 0 means 300 s.
	SnapshotIntervalSec int `json:"snapshotIntervalSec,omitempty"`
	// SnapshotEveryRecords snapshots once this many records accumulate
	// since the last snapshot; 0 means 256.
	SnapshotEveryRecords int `json:"snapshotEveryRecords,omitempty"`
}

// RPCSpec configures the resilient RPC client layer. Zero fields take
// the internal/node defaults, so the section is entirely optional.
type RPCSpec struct {
	// DialTimeoutMS bounds the TCP connect alone (default 10 000).
	DialTimeoutMS int `json:"dialTimeoutMS,omitempty"`
	// CallTimeoutMS bounds each attempt's request/reply I/O
	// (default 300 000 — paper-scale requests take minutes).
	CallTimeoutMS int `json:"callTimeoutMS,omitempty"`
	// PoolSize bounds pooled/in-flight connections per client (default 4).
	PoolSize int `json:"poolSize,omitempty"`
	// RetryAttempts is the total tries per idempotent call (default 4).
	RetryAttempts int `json:"retryAttempts,omitempty"`
	// RetryBaseMS and RetryMaxMS bound the exponential backoff
	// (defaults 50 and 2 000).
	RetryBaseMS int `json:"retryBaseMS,omitempty"`
	RetryMaxMS  int `json:"retryMaxMS,omitempty"`
}

// Options translates the spec into node client options.
func (r RPCSpec) Options() (node.Options, error) {
	if r.DialTimeoutMS < 0 || r.CallTimeoutMS < 0 || r.PoolSize < 0 ||
		r.RetryAttempts < 0 || r.RetryBaseMS < 0 || r.RetryMaxMS < 0 {
		return node.Options{}, fmt.Errorf("config: rpc values must be non-negative")
	}
	return node.Options{
		DialTimeout: time.Duration(r.DialTimeoutMS) * time.Millisecond,
		CallTimeout: time.Duration(r.CallTimeoutMS) * time.Millisecond,
		PoolSize:    r.PoolSize,
		Retry: node.RetryPolicy{
			MaxAttempts: r.RetryAttempts,
			BaseDelay:   time.Duration(r.RetryBaseMS) * time.Millisecond,
			MaxDelay:    time.Duration(r.RetryMaxMS) * time.Millisecond,
		},
	}, nil
}

// ParseCacheFlag parses the tools' -cache flag value: "off" (or "0")
// disables the encrypted-decision cache, a positive integer bounds its
// entry count.
func ParseCacheFlag(v string) (int, error) {
	if strings.EqualFold(v, "off") {
		return 0, nil
	}
	entries, err := strconv.Atoi(v)
	if err != nil || entries < 0 {
		return 0, fmt.Errorf("config: -cache wants a non-negative entry count or 'off', got %q", v)
	}
	return entries, nil
}

// ParseShardFlag parses sdcrouterd's -shards value: one distinct address
// per channel window, semicolon-separated in window order ("off" or the
// empty string returns nil); a server listed twice would get two windows.
func ParseShardFlag(v string) ([]string, error) {
	if v == "" || strings.EqualFold(v, "off") {
		return nil, nil
	}
	var addrs []string
	for i, decl := range strings.Split(v, ";") {
		a, err := OneAddr("-shards", "SDC", decl)
		if err != nil {
			return nil, err
		}
		if a == "" || slices.Contains(addrs, a) {
			return nil, fmt.Errorf("config: -shards wants one distinct address per shard, got %q for shard %d in %q", decl, i, v)
		}
		addrs = append(addrs, a)
	}
	return addrs, nil
}

// OneAddr parses an address flag of the named role, "SDC" (puctl/suctl
// -sdc, pisaload -addr, a shard of -shards) or "STP" (every -stp): one
// address or "". A list is refused by name: a replica misses the writes
// made while it is down and would then serve stale state.
func OneAddr(flag, role, v string) (string, error) {
	addrs := SplitAddrs(v)
	if len(addrs) > 1 {
		return "", fmt.Errorf("config: %s takes one %s address, got %q: %s replica groups were removed: a replica misses every write made while it is down (PU updates at an SDC, SU registrations at an STP)", flag, role, v, role)
	}
	return strings.Join(addrs, ""), nil // the one address, or ""
}

// SplitAddrs parses a comma-separated address list, trimming whitespace
// and dropping empties.
func SplitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// Options translates the spec into store open options.
func (s StoreSpec) Options() (store.Options, error) {
	if s.SegmentBytes < 0 || s.SnapshotIntervalSec < 0 || s.SnapshotEveryRecords < 0 {
		return store.Options{}, fmt.Errorf("config: store intervals must be non-negative")
	}
	return store.Options{SegmentBytes: s.SegmentBytes}, nil
}

// SnapshotInterval returns the time-based snapshot trigger.
func (s StoreSpec) SnapshotInterval() time.Duration {
	if s.SnapshotIntervalSec > 0 {
		return time.Duration(s.SnapshotIntervalSec) * time.Second
	}
	return 5 * time.Minute
}

// SnapshotThreshold returns the record-count snapshot trigger.
func (s StoreSpec) SnapshotThreshold() uint64 {
	if s.SnapshotEveryRecords > 0 {
		return uint64(s.SnapshotEveryRecords)
	}
	return 256
}

// Default returns a laptop-scale deployment: the paper's Table I
// geometry scaled down (10 channels, 10x6 blocks) with the crypto
// widths of pisa.DefaultParams — 2048-bit Paillier and Table I's
// blinding widths. At this grid a request takes a fraction of a second;
// tests that want smaller keys set them.
func Default() File {
	p := pisa.DefaultParams(watch.Params{})
	return File{
		Channels:        10,
		GridCols:        10,
		GridRows:        6,
		BlockSizeMeters: 10,
		UnitsPerMW:      1e9,
		SUMaxEIRPmW:     4000,
		SMinPUmW:        1e-5,
		DeltaSINRdB:     15,
		DeltaRednDB:     3,
		Secondary:       ModelSpec{Type: "log-distance", RefLossDB: 40, Exponent: 3.5},
		WorstCase:       ModelSpec{Type: "log-distance", RefLossDB: 60, Exponent: 4},
		PaillierBits:    p.PaillierBits,
		PlaintextBits:   p.PlaintextBits,
		AlphaBits:       p.AlphaBits,
		BetaBits:        p.BetaBits,
		EtaBits:         p.EtaBits,
		SignerBits:      p.SignerBits,
		CacheEntries:    p.CacheEntries,
		SDCAddr:         "127.0.0.1:7410",
		STPAddr:         "127.0.0.1:7411",
		// Durability stays off until a state directory is configured
		// (or -store is passed to a daemon); these are the defaults
		// that kick in when it is.
		Store: StoreSpec{SnapshotIntervalSec: 300, SnapshotEveryRecords: 256},
		// The resilience knobs are spelled out so generated configs
		// document them; they match the internal/node defaults.
		RPC: RPCSpec{
			DialTimeoutMS: 10_000, CallTimeoutMS: 300_000, PoolSize: 4,
			RetryAttempts: 4, RetryBaseMS: 50, RetryMaxMS: 2_000,
		},
	}
}

// Paper returns the paper's full Table I configuration: Default() at
// 100 channels and 600 blocks.
func Paper() File {
	f := Default()
	f.Channels = 100
	f.GridCols = 30
	f.GridRows = 20
	return f
}

// Load reads a JSON config; an empty path returns Default().
func Load(path string) (File, error) {
	if path == "" {
		return Default(), nil
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return File{}, fmt.Errorf("config: %w", err)
	}
	f := Default()
	if err := json.Unmarshal(raw, &f); err != nil {
		return File{}, fmt.Errorf("config: parse %s: %w", path, err)
	}
	// Keys whose behaviour was removed are refused where they ask for it
	// rather than ignored: the file would otherwise silently run packed,
	// unbatched, without a cache age bound and with every key tabling its
	// nonce base at the one fixed geometry, with kernels on GOMAXPROCS
	// workers, as one SDC instead of an in-process partition, with
	// cache entries no SU shares with another, and as PISA where it asked
	// for another backend. "packing": true, "fastExp": true,
	// "parallelism": -1 and zeros, which every file written by an earlier
	// Save contains, "shards": 1, an empty "cacheDomains" and "backend":
	// "pisa" ask for what is still there. A non-empty "stpAddrs" asks for
	// an STP replica group, whose registries could not be kept current.
	// The "pir" section, the "rpc" breaker keys and the "store" fsync
	// keys an earlier Save wrote are ignored: only removed code read
	// them (every append is fsynced).
	var removed struct {
		Packed        *bool               `json:"packing"`
		BatchWindowMS int                 `json:"stpBatchWindowMS"`
		BatchMax      int                 `json:"stpBatchMax"`
		TTLSec        int                 `json:"cacheTTLSec"`
		FastExp       *bool               `json:"fastExp"`
		FastExpWindow int                 `json:"fastExpWindow"`
		ShortExpBits  int                 `json:"shortExpBits"`
		Parallelism   *int                `json:"parallelism"`
		Shards        int                 `json:"shards"`
		Domains       map[string][]string `json:"cacheDomains"`
		Backend       string              `json:"backend"`
		STPReplicas   []string            `json:"stpAddrs"`
	}
	if err := json.Unmarshal(raw, &removed); err != nil {
		return File{}, fmt.Errorf("config: parse %s: %w", path, err)
	}
	switch {
	case removed.Packed != nil && !*removed.Packed:
		return File{}, fmt.Errorf(`config: %s: "packing": false asks for the unpacked ciphertext layout, which was removed`, path)
	case removed.BatchWindowMS > 0:
		return File{}, fmt.Errorf(`config: %s: "stpBatchWindowMS" asks for sign-test coalescing, which was removed`, path)
	case removed.BatchMax > 0:
		return File{}, fmt.Errorf(`config: %s: "stpBatchMax" asks for sign-test coalescing, which was removed`, path)
	case removed.TTLSec > 0:
		return File{}, fmt.Errorf(`config: %s: "cacheTTLSec" asks for a decision-cache age bound, which was removed (content versions already invalidate exactly)`, path)
	case removed.FastExp != nil && !*removed.FastExp:
		return File{}, fmt.Errorf(`config: %s: "fastExp": false asks for nonces without a key's table, which was removed (every key tables its nonce base on first use)`, path)
	case removed.FastExpWindow != 0:
		return File{}, fmt.Errorf(`config: %s: "fastExpWindow" asks for another nonce-table geometry, which was removed`, path)
	case removed.ShortExpBits != 0:
		return File{}, fmt.Errorf(`config: %s: "shortExpBits" asks for another nonce exponent width, which was removed`, path)
	case removed.Parallelism != nil && *removed.Parallelism != -1:
		return File{}, fmt.Errorf(`config: %s: "parallelism": %d asks for a kernel worker count, which was removed (kernels run on GOMAXPROCS workers; set GOMAXPROCS=1 for serial)`, path, *removed.Parallelism)
	case removed.Shards > 1:
		return File{}, fmt.Errorf(`config: %s: "shards": %d asks for an in-process channel partition, which was removed (run sdcd -shard-index i -shard-count %d for each window i behind sdcrouterd; each recovers the same shard-i state directory)`, path, removed.Shards, removed.Shards)
	case len(removed.Domains) > 0:
		return File{}, fmt.Errorf(`config: %s: "cacheDomains" asks for cache entries shared across SUs, which was removed (an entry serves only the request whose ciphertexts filled it)`, path)
	case removed.Backend != "" && removed.Backend != "pisa":
		return File{}, fmt.Errorf(`config: %s: "backend": %q asks for a query backend other than PISA; the networked PIR backend was removed (the PIR comparison runs in process: pisaload -backend pir)`, path, removed.Backend)
	case len(removed.STPReplicas) > 0:
		return File{}, fmt.Errorf(`config: %s: "stpAddrs" asks for STP replicas, which were removed (a replica down when an SU registers never learns its key; one "stpAddr" restarts from its -store instead)`, path)
	}
	return f, nil
}

// Save writes the config as indented JSON.
func (f File) Save(path string) error {
	raw, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return fmt.Errorf("config: marshal: %w", err)
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return fmt.Errorf("config: %w", err)
	}
	return nil
}

// WatchParams builds the radio/allocation parameter set.
func (f File) WatchParams() (watch.Params, error) {
	grid, err := geo.NewGrid(f.GridCols, f.GridRows, f.BlockSizeMeters)
	if err != nil {
		return watch.Params{}, err
	}
	secondary, err := f.Secondary.Build()
	if err != nil {
		return watch.Params{}, fmt.Errorf("secondary model: %w", err)
	}
	worst, err := f.WorstCase.Build()
	if err != nil {
		return watch.Params{}, fmt.Errorf("worst-case model: %w", err)
	}
	wp := watch.Params{
		Channels:    f.Channels,
		Grid:        grid,
		UnitsPerMW:  f.UnitsPerMW,
		SUMaxEIRPmW: f.SUMaxEIRPmW,
		SMinPUmW:    f.SMinPUmW,
		DeltaInt:    watch.DeltaFromDB(f.DeltaSINRdB, f.DeltaRednDB),
		Secondary:   secondary,
		WorstCase:   worst,
	}
	return wp, wp.Validate()
}

// PisaParams builds the full protocol parameter set.
func (f File) PisaParams() (pisa.Params, error) {
	wp, err := f.WatchParams()
	if err != nil {
		return pisa.Params{}, err
	}
	if f.CacheEntries < 0 {
		return pisa.Params{}, fmt.Errorf("config: cacheEntries must be non-negative")
	}
	p := pisa.Params{
		Watch:         wp,
		PaillierBits:  f.PaillierBits,
		PlaintextBits: f.PlaintextBits,
		AlphaBits:     f.AlphaBits,
		BetaBits:      f.BetaBits,
		EtaBits:       f.EtaBits,
		SignerBits:    f.SignerBits,
		CacheEntries:  f.CacheEntries,
	}
	return p, p.Validate()
}
