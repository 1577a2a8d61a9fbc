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
	// request shapes; pisa.Params.CacheEntries). 0 disables it. Load
	// starts from Default(), which enables 1024 entries — an explicit
	// "cacheEntries": 0 (or the daemons' -cache=off) switches it off.
	CacheEntries int `json:"cacheEntries"`
	// CacheDomains declares trust domains for cross-SU cache sharing
	// (pisa.Params.CacheDomains): domain name -> member SUIDs. By
	// default cache entries are scoped per SU, so a dishonest shape
	// digest is strictly self-inflicted; SUs declared in one domain
	// share entries instead, which trusts every member not to ship a
	// mismatched digest/F pair. The daemons' -cache-domains flag
	// overrides it.
	CacheDomains map[string][]string `json:"cacheDomains,omitempty"`

	// Shards partitions the SDC's budget matrix into this many channel
	// slices, each owned by an independent windowed SDC behind a
	// fan-out router (pisa.Router). 0 or 1 (the default) runs the
	// monolithic controller, its own one-shard router. The sdcd -shards
	// flag overrides it.
	Shards int `json:"shards,omitempty"`

	// Network addresses. STPAddrs lists additional equivalent STP
	// replicas (same group key, shared SU registry) that clients fail
	// over to when STPAddr stops answering.
	SDCAddr  string   `json:"sdcAddr"`
	STPAddr  string   `json:"stpAddr"`
	STPAddrs []string `json:"stpAddrs,omitempty"`

	// Backend selects the spectrum-query protocol family: "pisa" (the
	// paper's homomorphic sign tests through an STP; the default) or
	// "pir" (k-server information-theoretic PIR against plaintext
	// replicas; internal/pir). The tools' -backend flag overrides it.
	Backend string `json:"backend,omitempty"`

	// PIR configures the multi-server PIR backend; only consulted when
	// Backend (or -backend) selects "pir".
	PIR PIRSpec `json:"pir,omitempty"`

	// RPC tunes the client resilience layer (internal/node): dial vs
	// call deadlines, retry budget, pool size, circuit breaker.
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
// with an empty Dir keeps all state in memory and loses it on exit.
type StoreSpec struct {
	// Dir is the state directory (WAL segments + snapshots). The SDC
	// and STP must use distinct directories.
	Dir string `json:"dir,omitempty"`
	// Fsync is "always", "interval" or "never" (store.ParseFsyncPolicy).
	Fsync string `json:"fsync,omitempty"`
	// FsyncIntervalMS is the background sync cadence under the
	// "interval" policy; 0 uses the store default (100 ms).
	FsyncIntervalMS int `json:"fsyncIntervalMS,omitempty"`
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
	// BreakerFailures is the consecutive-fault threshold that opens an
	// endpoint's circuit breaker (default 3); BreakerCooldownMS is how
	// long it stays open before a probe (default 3 000).
	BreakerFailures   int `json:"breakerFailures,omitempty"`
	BreakerCooldownMS int `json:"breakerCooldownMS,omitempty"`
}

// Options translates the spec into node client options.
func (r RPCSpec) Options() (node.Options, error) {
	if r.DialTimeoutMS < 0 || r.CallTimeoutMS < 0 || r.PoolSize < 0 ||
		r.RetryAttempts < 0 || r.RetryBaseMS < 0 || r.RetryMaxMS < 0 ||
		r.BreakerFailures < 0 || r.BreakerCooldownMS < 0 {
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
		Breaker: node.BreakerConfig{
			FailureThreshold: r.BreakerFailures,
			Cooldown:         time.Duration(r.BreakerCooldownMS) * time.Millisecond,
		},
	}, nil
}

// Backend names.
const (
	BackendPISA = "pisa"
	BackendPIR  = "pir"
)

// BackendName resolves the configured backend: empty selects PISA.
func (f File) BackendName() (string, error) {
	switch f.Backend {
	case "", BackendPISA:
		return BackendPISA, nil
	case BackendPIR:
		return BackendPIR, nil
	default:
		return "", fmt.Errorf("config: unknown backend %q (want %q or %q)", f.Backend, BackendPISA, BackendPIR)
	}
}

// PIRSpec configures the k-server PIR backend: the replica fleet, the
// non-collusion threshold, and the availability/Bloom geometry.
type PIRSpec struct {
	// Addrs lists the replica daemons (cmd/pirdbd). Unlike STPAddrs
	// these are NOT interchangeable failover targets: each query share
	// must reach a DIFFERENT replica, and privacy rests on fewer than
	// K of them colluding.
	Addrs []string `json:"addrs,omitempty"`
	// K is the shares-per-query threshold; 0 uses every configured
	// replica (no spares). Replicas beyond K are spares that take over
	// a share when a primary fails.
	K int `json:"k,omitempty"`
	// MinEIRPmW is the availability threshold the replicas build their
	// tables at: a (channel, block) bit is set iff at least this EIRP
	// could be granted there. 0 uses the regulatory cap (suMaxEIRPmW)
	// — "where is full power available?".
	MinEIRPmW float64 `json:"minEIRPmW,omitempty"`
	// BloomBits and BloomHashes size the per-block Bloom filter rows
	// (0, 0 = 16 bits/channel with the optimal hash count).
	BloomBits   int `json:"bloomBits,omitempty"`
	BloomHashes int `json:"bloomHashes,omitempty"`
}

// MinEIRPUnits quantises the availability threshold for the replica
// database; 0 lets pir.NewDatabase fall back to the regulatory cap.
func (p PIRSpec) MinEIRPUnits(wp watch.Params) int64 {
	if p.MinEIRPmW <= 0 {
		return 0
	}
	return wp.Quantize(p.MinEIRPmW)
}

// Targets returns the deduplicated replica list.
func (p PIRSpec) Targets() []string {
	targets := []string{}
	seen := map[string]bool{}
	for _, a := range p.Addrs {
		if a == "" || seen[a] {
			continue
		}
		seen[a] = true
		targets = append(targets, a)
	}
	return targets
}

// ParseCacheFlag parses the tools' -cache flag value: "off" (or "0")
// disables the encrypted-decision cache, a positive integer bounds its
// entry count.
func ParseCacheFlag(v string) (int, error) {
	if strings.EqualFold(v, "off") {
		return 0, nil
	}
	var entries int
	if _, err := fmt.Sscanf(v, "%d", &entries); err != nil || entries < 0 {
		return 0, fmt.Errorf("config: -cache wants a non-negative entry count or 'off', got %q", v)
	}
	return entries, nil
}

// ParseCacheDomainsFlag parses the daemons' -cache-domains flag value:
// semicolon-separated "domain=su1,su2" declarations ("off" or the
// empty string clears every domain, reverting to per-SU cache scope).
// Duplicate-membership validation happens in pisa.Params.Validate.
func ParseCacheDomainsFlag(v string) (map[string][]string, error) {
	if v == "" || strings.EqualFold(v, "off") {
		return nil, nil
	}
	domains := make(map[string][]string)
	for _, decl := range strings.Split(v, ";") {
		if decl = strings.TrimSpace(decl); decl == "" {
			continue
		}
		name, list, ok := strings.Cut(decl, "=")
		name = strings.TrimSpace(name)
		if !ok || name == "" {
			return nil, fmt.Errorf("config: -cache-domains wants 'domain=su1,su2[;...]', got %q", decl)
		}
		members := SplitAddrs(list)
		if len(members) == 0 {
			return nil, fmt.Errorf("config: -cache-domains domain %q has no members", name)
		}
		if _, dup := domains[name]; dup {
			return nil, fmt.Errorf("config: -cache-domains declares domain %q twice", name)
		}
		domains[name] = members
	}
	if len(domains) == 0 {
		return nil, nil
	}
	return domains, nil
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
		a, err := OneSDCAddr("-shards", decl)
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

// OneSDCAddr parses an SDC-facing address flag (puctl/suctl -sdc, pisaload
// -addr, a shard of -shards): one address or "". A list is refused by name:
// a PU update reaches one address, so a standby would grant on stale budgets.
func OneSDCAddr(flag, v string) (string, error) {
	addrs := SplitAddrs(v)
	if len(addrs) > 1 {
		return "", fmt.Errorf("config: %s takes one SDC address, got %q: SDC replica groups were removed: a standby never sees PU updates", flag, v)
	}
	return strings.Join(addrs, ""), nil // the one address, or ""
}

// SplitAddrs parses a comma-separated address list (the form the -stp
// flags accept), trimming whitespace and dropping empties.
func SplitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// STPTargets returns the full failover list: STPAddr followed by
// every distinct STPAddrs entry.
func (f File) STPTargets() []string {
	targets := []string{}
	seen := map[string]bool{}
	for _, a := range append([]string{f.STPAddr}, f.STPAddrs...) {
		if a == "" || seen[a] {
			continue
		}
		seen[a] = true
		targets = append(targets, a)
	}
	return targets
}

// Options translates the spec into store open options.
func (s StoreSpec) Options() (store.Options, error) {
	var opts store.Options
	if s.Fsync != "" {
		policy, err := store.ParseFsyncPolicy(s.Fsync)
		if err != nil {
			return store.Options{}, fmt.Errorf("config: store.fsync: %w", err)
		}
		opts.Fsync = policy
	}
	if s.FsyncIntervalMS < 0 || s.SegmentBytes < 0 || s.SnapshotIntervalSec < 0 || s.SnapshotEveryRecords < 0 {
		return store.Options{}, fmt.Errorf("config: store intervals must be non-negative")
	}
	opts.FsyncEvery = time.Duration(s.FsyncIntervalMS) * time.Millisecond
	opts.SegmentBytes = s.SegmentBytes
	return opts, nil
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
// geometry scaled down (10 channels, 10x6 blocks) with test-size keys
// so requests complete in seconds rather than minutes.
func Default() File {
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
		PaillierBits:    768,
		PlaintextBits:   60,
		AlphaBits:       128,
		BetaBits:        64,
		EtaBits:         64,
		SignerBits:      512,
		CacheEntries:    1024,
		SDCAddr:         "127.0.0.1:7410",
		STPAddr:         "127.0.0.1:7411",
		// Durability stays off until a state directory is configured
		// (or -store is passed to a daemon); these are the defaults
		// that kick in when it is.
		Store: StoreSpec{Fsync: "interval", FsyncIntervalMS: 100, SnapshotIntervalSec: 300, SnapshotEveryRecords: 256},
		// The resilience knobs are spelled out so generated configs
		// document them; they match the internal/node defaults.
		RPC: RPCSpec{
			DialTimeoutMS: 10_000, CallTimeoutMS: 300_000, PoolSize: 4,
			RetryAttempts: 4, RetryBaseMS: 50, RetryMaxMS: 2_000,
			BreakerFailures: 3, BreakerCooldownMS: 3_000,
		},
		// The PIR replica fleet is spelled out so generated configs
		// document the alternative backend: 3 replicas, every one used
		// per query (k = 0 -> 3), availability at the regulatory cap.
		PIR: PIRSpec{
			Addrs: []string{"127.0.0.1:7420", "127.0.0.1:7421", "127.0.0.1:7422"},
		},
	}
}

// Paper returns the paper's full Table I configuration: 100 channels,
// 600 blocks, 2048-bit Paillier. Request processing at this scale
// takes minutes per the paper's own measurements.
func Paper() File {
	f := Default()
	f.Channels = 100
	f.GridCols = 30
	f.GridRows = 20
	f.PaillierBits = 2048
	f.AlphaBits = 512
	f.BetaBits = 256
	f.EtaBits = 256
	f.SignerBits = 2048 - 64
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
	// nonce base at the one fixed geometry, and with kernels on GOMAXPROCS
	// workers. "packing": true, "fastExp": true, "parallelism": -1 and
	// zeros, which every file written by an earlier Save contains, ask for
	// what is still there.
	var removed struct {
		Packed        *bool `json:"packing"`
		BatchWindowMS int   `json:"stpBatchWindowMS"`
		BatchMax      int   `json:"stpBatchMax"`
		TTLSec        int   `json:"cacheTTLSec"`
		FastExp       *bool `json:"fastExp"`
		FastExpWindow int   `json:"fastExpWindow"`
		ShortExpBits  int   `json:"shortExpBits"`
		Parallelism   *int  `json:"parallelism"`
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
		CacheDomains:  f.CacheDomains,
	}
	return p, p.Validate()
}
