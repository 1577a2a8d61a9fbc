package bench

import (
	"context"
	"crypto/rand"
	"crypto/rsa"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pisa/internal/geo"
	"pisa/internal/node"
	"pisa/internal/obs"
	"pisa/internal/paillier"
	"pisa/internal/pir"
	"pisa/internal/pisa"
	"pisa/internal/trace"
	"pisa/internal/watch"
)

// This file is the trace-driven load harness behind cmd/pisaload: a
// fleet of mobile SUs (trace.SUWorkload's fleet model) and diurnal PU
// churn (trace.PUSchedule) drive a deployment — monolithic SDC, shard
// router, PIR replica fleet, or an injected remote target — in open
// loop (fixed offered rate, backlog grows when the service falls
// behind) or closed loop (N workers, think time). SLOs come from the
// live obs histograms via delta snapshots, so the report reads the
// same series /metrics exposes.

// LoadTarget abstracts the deployment under load: the in-process
// router below implements it at any shard count, and
// cmd/pisaload adapts the node RPC clients for `-addr` runs.
type LoadTarget interface {
	GroupKey() *paillier.PublicKey
	Planner() *watch.Planner
	VerifyKey() (*rsa.PublicKey, error)
	RegisterSU(id string, pk *paillier.PublicKey) error
	Process(req *pisa.TransmissionRequest) (*pisa.Response, error)
	Update(u *pisa.PUUpdate) error
	EColumn(b geo.BlockID) ([]int64, error)
	Close()
}

// inProcessTarget is an in-process router over its SDCs and the STP:
// a full-window SDC's own one-shard router, or a router over
// channel-windowed SDCs.
type inProcessTarget struct {
	front *pisa.Router
	sdcs  []*pisa.SDC
	stp   *pisa.STP
}

func (t *inProcessTarget) GroupKey() *paillier.PublicKey      { return t.stp.GroupKey() }
func (t *inProcessTarget) Planner() *watch.Planner            { return t.front.Planner() }
func (t *inProcessTarget) VerifyKey() (*rsa.PublicKey, error) { return t.front.VerifyKey(), nil }
func (t *inProcessTarget) RegisterSU(id string, pk *paillier.PublicKey) error {
	return t.stp.RegisterSU(id, pk)
}
func (t *inProcessTarget) Process(req *pisa.TransmissionRequest) (*pisa.Response, error) {
	return t.front.ProcessRequest(req)
}
func (t *inProcessTarget) Update(u *pisa.PUUpdate) error          { return t.front.HandlePUUpdate(u) }
func (t *inProcessTarget) EColumn(b geo.BlockID) ([]int64, error) { return t.front.EColumn(b) }
func (t *inProcessTarget) Close() {
	for _, s := range t.sdcs {
		s.Close()
	}
}

// NewInProcessTarget stands up a deployment for the load engine: one
// SDC per channel window of max(shards, 1), behind a router. At one
// window the SDC is its own one-shard router.
func NewInProcessTarget(params pisa.Params, shards int) (LoadTarget, error) {
	stp, err := pisa.NewSTP(rand.Reader, params.PaillierBits)
	if err != nil {
		return nil, err
	}
	if params.FastExp {
		if err := stp.SetFastExp(params.FastExpWindow, params.ShortExpBits); err != nil {
			return nil, err
		}
	}
	windows, err := pisa.Windows(params.Watch.Channels, max(shards, 1))
	if err != nil {
		return nil, err
	}
	t := &inProcessTarget{stp: stp}
	services := make([]pisa.ShardService, len(windows))
	for i, w := range windows {
		s, err := pisa.NewSDC("load-sdc", params, nil, stp, pisa.WithChannelWindow(w[0], w[1]))
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("bench: shard %d: %w", i, err)
		}
		t.sdcs = append(t.sdcs, s)
		services[i] = s
	}
	if t.front = t.sdcs[0].Router(); t.front == nil {
		if t.front, err = pisa.NewRouter("load-router", params, nil, stp, services); err != nil {
			t.Close()
			return nil, err
		}
	}
	return t, nil
}

// LoadConfig parameterises one load run. The zero value is not
// runnable; cmd/pisaload and the tests fill it from flags/defaults.
type LoadConfig struct {
	// Mode is "open" (replay arrivals at their trace times; the
	// backlog grows when the service falls behind) or "closed" (N
	// workers issue requests back to back with think time between).
	Mode string
	// Duration is the wall-clock run length; the generated traces
	// compress one diurnal period into it.
	Duration time.Duration
	// Rate is the offered arrival rate in requests/second. Open loop
	// dispatches at exactly this rate; closed loop uses it only to
	// size the generated trace it cycles through.
	Rate float64
	// Workers and Think shape the closed loop; ignored in open mode.
	Workers int
	Think   time.Duration
	// Seed makes the workload reproducible.
	Seed int64
	// MaxRetries re-submits a failed request this many times before
	// counting it as an error.
	MaxRetries int

	// Fleet model (trace.SUConfig): a Fleet of roaming SUs with
	// Zipf-skewed attribution — what makes per-SU cache hits and
	// registration reuse possible at all.
	Fleet              int
	FleetZipfS         float64
	Mobility           float64
	ChannelZipfS       float64
	EIRPLevels         int
	ChannelsPerRequest float64

	// PU churn (trace.PUConfig), replayed concurrently with the
	// request load. DiurnalAmplitude compresses a TV-viewing day into
	// Duration. PUs == 0 disables churn.
	PUs               int
	PUSwitchesPerHour float64
	OffProbability    float64
	PUZipfS           float64
	DiurnalAmplitude  float64

	// In-process deployment shape; ignored when Target or PIRFetch
	// is injected.
	Channels, Cols, Rows int
	PaillierBits         int
	Shards               int
	CacheEntries         int
	// Backend selects the query path: "pisa" (default, the encrypted
	// protocol) or "pir" (multi-server XOR-PIR fleet; Replicas/K size
	// it in process).
	Backend     string
	Replicas, K int

	// Target injects a pre-built deployment (cmd/pisaload's -addr
	// mode); TargetParams must carry the deployment's pisa.Params
	// (the SUs mint keys of TargetParams.PaillierBits). PIRFetch
	// likewise injects a remote PIR fetch returning the block's
	// bitmap row.
	Target       LoadTarget
	TargetParams pisa.Params
	PIRFetch     func(block geo.BlockID) ([]byte, error)
	// PIRMeta describes the injected PIR fleet (required with
	// PIRFetch) so availability can be decided locally.
	PIRMeta pir.Meta
}

func (c LoadConfig) validate() error {
	switch {
	case c.Mode != "open" && c.Mode != "closed":
		return fmt.Errorf("bench: load mode %q (want open or closed)", c.Mode)
	case c.Duration <= 0:
		return fmt.Errorf("bench: load duration must be positive, got %v", c.Duration)
	case c.Rate <= 0:
		return fmt.Errorf("bench: load rate must be positive, got %g", c.Rate)
	case c.Mode == "closed" && c.Workers <= 0:
		return fmt.Errorf("bench: closed loop needs workers >= 1, got %d", c.Workers)
	case c.Think < 0:
		return fmt.Errorf("bench: think time must be non-negative, got %v", c.Think)
	case c.Fleet <= 0:
		return fmt.Errorf("bench: load needs a fleet (Fleet >= 1), got %d", c.Fleet)
	case c.MaxRetries < 0:
		return fmt.Errorf("bench: MaxRetries must be non-negative, got %d", c.MaxRetries)
	case c.Backend != "" && c.Backend != "pisa" && c.Backend != "pir":
		return fmt.Errorf("bench: load backend %q (want pisa or pir)", c.Backend)
	}
	return nil
}

// StageSLO is one pipeline stage's latency distribution over the run,
// read as a delta snapshot of its live obs histogram.
type StageSLO struct {
	Stage  string  `json:"stage"`
	Count  uint64  `json:"count"`
	MeanMs float64 `json:"meanMs"`
	P50Ms  float64 `json:"p50Ms"`
	P99Ms  float64 `json:"p99Ms"`
	P999Ms float64 `json:"p999Ms"`
}

// LoadReport is the run outcome cmd/pisaload prints and, with -json,
// writes to a file.
type LoadReport struct {
	Mode         string  `json:"mode"`
	Backend      string  `json:"backend"`
	Shards       int     `json:"shards"`
	Channels     int     `json:"channels"`
	Blocks       int     `json:"blocks"`
	PaillierBits int     `json:"paillierBits"`
	Fleet        int     `json:"fleet"`
	Workers      int     `json:"workers,omitempty"`
	DurationSec  float64 `json:"durationSec"`

	// OfferedRate is the arrival rate the generator aimed for;
	// AchievedRate what the deployment completed. Open loop with
	// achieved < offered means the backlog grew (PeakBacklog says how
	// far).
	OfferedRate  float64 `json:"offeredRate"`
	AchievedRate float64 `json:"achievedRate"`
	PeakBacklog  int64   `json:"peakBacklog"`

	Requests   int64 `json:"requests"`
	Grants     int64 `json:"grants"`
	Denials    int64 `json:"denials"`
	Errors     int64 `json:"errors"`
	Retries    int64 `json:"retries"`
	Registered int64 `json:"registered"`
	Prepared   int64 `json:"prepared"`
	Refreshed  int64 `json:"refreshed"`
	PUUpdates  int64 `json:"puUpdates"`
	PUErrors   int64 `json:"puErrors"`

	CacheHits    int64   `json:"cacheHits"`
	CacheMisses  int64   `json:"cacheMisses"`
	CacheStale   int64   `json:"cacheStale"`
	CacheBypass  int64   `json:"cacheBypass"`
	CacheHitRate float64 `json:"cacheHitRate"`

	Stages []StageSLO `json:"stages"`

	// FirstError preserves the first request failure's message — the
	// aggregate Errors count alone gives nothing to debug with.
	FirstError string `json:"firstError,omitempty"`
}

// WriteJSON saves the report as indented JSON.
func (r *LoadReport) WriteJSON(path string) error {
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// member is one fleet SU's live state: its key pair and registration
// survive the whole run (that is the point of the fleet model), base
// requests are cached per shape so a revisited shape takes the cheap
// RefreshRequest path — which is also what makes it a decision-cache
// hit at the SDC.
type member struct {
	mu    sync.Mutex
	su    *pisa.SU
	block geo.BlockID
	base  map[string]*pisa.TransmissionRequest
}

// shapeKey identifies a request shape (location + channel set + EIRP
// levels) — the same plaintext inputs pisa.ShapeDigest covers.
func shapeKey(block geo.BlockID, eirp map[int]int64) string {
	chans := make([]int, 0, len(eirp))
	for c := range eirp {
		chans = append(chans, c)
	}
	sort.Ints(chans)
	var b strings.Builder
	fmt.Fprintf(&b, "b%d", block)
	for _, c := range chans {
		fmt.Fprintf(&b, "|%d=%d", c, eirp[c])
	}
	return b.String()
}

// histBracket brackets one live histogram for delta SLOs.
type histBracket struct {
	stage  string
	h      *obs.Histogram
	before obs.HistogramSnapshot
}

// RunLoad executes one load scenario and reports SLOs from the live
// obs histograms (delta-bracketed, so back-to-back runs in one
// process do not pollute each other).
func RunLoad(cfg LoadConfig) (*LoadReport, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	backend := cfg.Backend
	if backend == "" {
		backend = "pisa"
	}
	if backend == "pir" {
		return runPIRLoad(cfg)
	}

	target := cfg.Target
	var params pisa.Params
	if target == nil {
		var err error
		params, err = SmallParams(cfg.Channels, cfg.Cols, cfg.Rows, cfg.PaillierBits)
		if err != nil {
			return nil, err
		}
		params.CacheEntries = cfg.CacheEntries
		if target, err = NewInProcessTarget(params, cfg.Shards); err != nil {
			return nil, err
		}
		defer target.Close()
	} else {
		params = cfg.TargetParams
	}
	wp := target.Planner().Params()
	verifyKey, err := target.VerifyKey()
	if err != nil {
		return nil, fmt.Errorf("bench: fetch verify key: %w", err)
	}

	events, err := trace.SUWorkload(trace.SUConfig{
		Seed:               cfg.Seed,
		Blocks:             wp.Grid.Blocks(),
		Channels:           wp.Channels,
		MaxEIRPUnits:       wp.Quantize(wp.SUMaxEIRPmW),
		RequestsPerHour:    cfg.Rate * 3600,
		ChannelsPerRequest: max(cfg.ChannelsPerRequest, 1),
		Fleet:              cfg.Fleet,
		FleetZipfS:         cfg.FleetZipfS,
		Mobility:           cfg.Mobility,
		ChannelZipfS:       cfg.ChannelZipfS,
		EIRPLevels:         cfg.EIRPLevels,
		Horizon:            cfg.Duration,
	})
	if err != nil {
		return nil, err
	}
	if len(events) == 0 {
		return nil, fmt.Errorf("bench: trace generated no arrivals (rate %g over %v)", cfg.Rate, cfg.Duration)
	}

	report := &LoadReport{
		Mode: cfg.Mode, Backend: backend, Shards: cfg.Shards,
		Channels: wp.Channels, Blocks: wp.Grid.Blocks(),
		PaillierBits: params.PaillierBits, Fleet: cfg.Fleet,
		Workers: cfg.Workers, OfferedRate: cfg.Rate,
	}

	// Bracket every histogram the report quotes BEFORE any traffic.
	r := obs.Default()
	brackets := []*histBracket{{stage: "e2e", h: r.Histogram("pisa_load_request_seconds",
		"end-to-end request latency as the load harness sees it (prepare/refresh + process + open)",
		nil, nil)}}
	for _, s := range []string{"snapshot", "aggregate", "blind", "stp_convert", "unblind", "total"} {
		brackets = append(brackets, &histBracket{stage: "sdc_" + s,
			h: r.Histogram("pisa_sdc_request_stage_seconds",
				"per-stage SU request processing time in one SDC (Figure 5, eqs. 11-16; the license is the router's)",
				obs.Labels{"stage": s}, nil)})
	}
	for _, s := range []string{"fanout", "merge", "license", "total"} {
		brackets = append(brackets, &histBracket{stage: "router_" + s,
			h: r.Histogram("pisa_router_stage_seconds",
				"per-stage router request processing time (fan-out, merge, license)",
				obs.Labels{"stage": s}, nil)})
	}
	for _, b := range brackets {
		b.before = b.h.Snapshot()
	}
	cacheEvents := map[string]*obs.Counter{}
	cacheBefore := map[string]uint64{}
	for _, ev := range []string{"hit", "miss", "stale", "bypass"} {
		c := r.Counter("pisa_sdc_cache_events_total",
			"encrypted-decision cache events by kind", obs.Labels{"event": ev})
		cacheEvents[ev] = c
		cacheBefore[ev] = c.Value()
	}
	e2e := brackets[0].h

	// Fleet state and the request executor shared by both loops.
	var (
		memberMu sync.Mutex
		members  = map[string]*member{}
	)
	var registered, prepared, refreshed, grants, denials, errors, retries atomic.Int64
	var (
		errMu    sync.Mutex
		firstErr string
	)
	fail := func(err error) {
		errors.Add(1)
		errMu.Lock()
		if firstErr == "" && err != nil {
			firstErr = err.Error()
		}
		errMu.Unlock()
	}
	getMember := func(ev trace.SURequest) (*member, error) {
		memberMu.Lock()
		m, ok := members[ev.SU]
		if ok {
			memberMu.Unlock()
			return m, nil
		}
		// First arrival for this SU: publish a placeholder holding its
		// own lock, so concurrent workers queue on the member instead
		// of racing a second key generation into RegisterSU (the STP
		// rejects a re-registration under a different key).
		m = &member{block: ev.Block, base: map[string]*pisa.TransmissionRequest{}}
		m.mu.Lock()
		members[ev.SU] = m
		memberMu.Unlock()
		// Key generation + registration happen once per fleet member —
		// the bring-up cost real deployments amortise over the SU's
		// lifetime, not per request (the PR-10 workload bugfix).
		su, err := pisa.NewSU(rand.Reader, ev.SU, ev.Block, params, target.Planner(), target.GroupKey())
		if err == nil {
			if rerr := target.RegisterSU(su.ID(), su.PublicKey()); rerr != nil {
				su.Close()
				err = rerr
			}
		}
		if err != nil {
			// Withdraw the placeholder so a later arrival can retry the
			// bring-up; workers already queued on m.mu see su == nil.
			memberMu.Lock()
			delete(members, ev.SU)
			memberMu.Unlock()
			m.mu.Unlock()
			return nil, err
		}
		m.su = su
		m.mu.Unlock()
		registered.Add(1)
		return m, nil
	}
	exec := func(ev trace.SURequest) {
		m, err := getMember(ev)
		if err != nil {
			fail(err)
			return
		}
		m.mu.Lock()
		defer m.mu.Unlock()
		if m.su == nil {
			// Queued behind a bring-up that failed and withdrew itself.
			fail(fmt.Errorf("bench: SU %s bring-up failed", ev.SU))
			return
		}
		start := time.Now()
		if ev.Block != m.block {
			if err := m.su.MoveTo(ev.Block); err != nil {
				fail(err)
				return
			}
			m.block = ev.Block
		}
		key := shapeKey(ev.Block, ev.EIRPUnits)
		var req *pisa.TransmissionRequest
		if base, ok := m.base[key]; ok {
			// Same shape again: RefreshRequest re-sends the digest-carrying
			// request, a decision-cache hit at the SDC (same SU, same digest).
			req, err = m.su.RefreshRequest(base)
			refreshed.Add(1)
		} else {
			req, err = m.su.PrepareRequest(ev.EIRPUnits, geo.Disclosure{})
			prepared.Add(1)
			if err == nil {
				m.base[key] = req
			}
		}
		if err != nil {
			fail(err)
			return
		}
		var resp *pisa.Response
		for attempt := 0; ; attempt++ {
			resp, err = target.Process(req)
			if err == nil || attempt >= cfg.MaxRetries {
				break
			}
			retries.Add(1)
		}
		if err != nil {
			fail(err)
			return
		}
		grant, err := m.su.OpenResponse(resp, req, verifyKey)
		e2e.ObserveSince(start)
		if err != nil {
			fail(err)
			return
		}
		if grant.Granted {
			grants.Add(1)
		} else {
			denials.Add(1)
		}
	}

	// PU churn replay runs alongside the request load.
	puDone := make(chan struct{})
	var puUpdates, puErrors atomic.Int64
	if cfg.PUs > 0 {
		schedule, err := trace.PUSchedule(trace.PUConfig{
			Seed:             cfg.Seed + 1,
			PUs:              cfg.PUs,
			Blocks:           wp.Grid.Blocks(),
			Channels:         wp.Channels,
			SwitchesPerHour:  max(cfg.PUSwitchesPerHour, 1),
			OffProbability:   cfg.OffProbability,
			ZipfS:            cfg.PUZipfS,
			DiurnalAmplitude: cfg.DiurnalAmplitude,
			DiurnalPeriod:    cfg.Duration, // one compressed TV-viewing day
			Horizon:          cfg.Duration,
		})
		if err != nil {
			return nil, err
		}
		go func() {
			defer close(puDone)
			replayPUs(target, wp, schedule, &puUpdates, &puErrors)
		}()
	} else {
		close(puDone)
	}

	// Drive the load.
	start := time.Now()
	var peakBacklog int64
	switch cfg.Mode {
	case "open":
		var wg sync.WaitGroup
		var backlog atomic.Int64
		for _, ev := range events {
			if d := ev.At - time.Since(start); d > 0 {
				time.Sleep(d)
			}
			wg.Add(1)
			if b := backlog.Add(1); b > peakBacklog {
				peakBacklog = b
			}
			go func(ev trace.SURequest) {
				defer wg.Done()
				defer backlog.Add(-1)
				exec(ev)
			}(ev)
		}
		wg.Wait()
	case "closed":
		var next atomic.Int64
		var wg sync.WaitGroup
		deadline := start.Add(cfg.Duration)
		for w := 0; w < cfg.Workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(deadline) {
					// Cycle the trace: shapes repeat across laps, which is
					// exactly the revisit behaviour the fleet model exists
					// to exercise.
					ev := events[int(next.Add(1)-1)%len(events)]
					exec(ev)
					if cfg.Think > 0 {
						time.Sleep(cfg.Think)
					}
				}
			}()
		}
		wg.Wait()
	}
	elapsed := time.Since(start)
	<-puDone

	report.DurationSec = elapsed.Seconds()
	report.Requests = grants.Load() + denials.Load() + errors.Load()
	report.Grants = grants.Load()
	report.Denials = denials.Load()
	report.Errors = errors.Load()
	report.Retries = retries.Load()
	report.FirstError = firstErr
	report.Registered = registered.Load()
	report.Prepared = prepared.Load()
	report.Refreshed = refreshed.Load()
	report.PUUpdates = puUpdates.Load()
	report.PUErrors = puErrors.Load()
	report.PeakBacklog = peakBacklog
	if elapsed > 0 {
		report.AchievedRate = float64(report.Requests-report.Errors) / elapsed.Seconds()
	}
	report.CacheHits = int64(cacheEvents["hit"].Value() - cacheBefore["hit"])
	report.CacheMisses = int64(cacheEvents["miss"].Value() - cacheBefore["miss"])
	report.CacheStale = int64(cacheEvents["stale"].Value() - cacheBefore["stale"])
	report.CacheBypass = int64(cacheEvents["bypass"].Value() - cacheBefore["bypass"])
	if lookups := report.CacheHits + report.CacheMisses + report.CacheStale; lookups > 0 {
		report.CacheHitRate = float64(report.CacheHits) / float64(lookups)
	}
	report.Stages = collectSLOs(brackets)
	return report, nil
}

// replayPUs walks the schedule in time order, lazily standing up each
// PU on first appearance and pushing its tune/off updates at their
// trace times.
func replayPUs(target LoadTarget, wp watch.Params, schedule []trace.PUSwitch,
	updates, errors *atomic.Int64) {
	pus := map[string]*pisa.PU{}
	signal := wp.Quantize(wp.SMinPUmW * 100)
	start := time.Now()
	for _, ev := range schedule {
		if d := ev.At - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		id := string(ev.PU)
		pu, ok := pus[id]
		if !ok {
			eCol, err := target.EColumn(ev.Block)
			if err != nil {
				errors.Add(1)
				continue
			}
			pu, err = pisa.NewPU(rand.Reader, watch.PUID(id), ev.Block, eCol, target.GroupKey())
			if err != nil {
				errors.Add(1)
				continue
			}
			pus[id] = pu
		}
		var u *pisa.PUUpdate
		var err error
		if ev.Channel < 0 {
			u, err = pu.Off()
		} else {
			u, err = pu.Tune(ev.Channel, signal)
		}
		if err != nil {
			errors.Add(1)
			continue
		}
		if err := target.Update(u); err != nil {
			errors.Add(1)
			continue
		}
		updates.Add(1)
	}
}

// collectSLOs turns the bracketed histograms into per-stage quantile
// rows, skipping stages that saw no traffic (their quantiles would be
// NaN, which JSON cannot carry).
func collectSLOs(brackets []*histBracket) []StageSLO {
	var out []StageSLO
	for _, b := range brackets {
		delta := b.h.Snapshot().Sub(b.before)
		n := delta.Count()
		if n == 0 {
			continue
		}
		ms := func(q float64) float64 {
			v := delta.Quantile(q)
			if math.IsNaN(v) {
				return 0
			}
			return v * 1e3
		}
		out = append(out, StageSLO{
			Stage:  b.stage,
			Count:  n,
			MeanMs: delta.Sum / float64(n) * 1e3,
			P50Ms:  ms(0.5),
			P99Ms:  ms(0.99),
			P999Ms: ms(0.999),
		})
	}
	return out
}

// runPIRLoad drives the multi-server PIR backend with the same fleet
// trace: each arrival fetches its block's bitmap row obliviously and
// decides the requested channels locally. No registration, no
// licensing, no decision cache — the report's zero cache fields are
// the honest trade against the PISA side.
func runPIRLoad(cfg LoadConfig) (*LoadReport, error) {
	fetch := cfg.PIRFetch
	meta := cfg.PIRMeta
	if fetch == nil {
		params, err := SmallParams(cfg.Channels, cfg.Cols, cfg.Rows, cfg.PaillierBits)
		if err != nil {
			return nil, err
		}
		wp := params.Watch
		replicas, k := cfg.Replicas, cfg.K
		if k < 2 {
			k = 2
		}
		if replicas < k {
			replicas = k + 1
		}
		addrs := make([]string, replicas)
		for i := range addrs {
			db, err := pir.NewDatabase(wp, nil, 0, 0, 0)
			if err != nil {
				return nil, err
			}
			u := &pir.Update{PUID: "load-tv", Block: 1, Channel: 0,
				SignalUnits: wp.Quantize(wp.SMinPUmW)}
			if err := db.ApplyUpdate(u); err != nil {
				return nil, err
			}
			srv := node.NewPIRServer(db, nil, 0)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			go srv.Serve(ln)
			defer srv.Close()
			addrs[i] = ln.Addr().String()
		}
		opts := node.Options{DialTimeout: 2 * time.Second, CallTimeout: 30 * time.Second,
			Retry: node.RetryPolicy{MaxAttempts: 3, BaseDelay: 5 * time.Millisecond,
				MaxDelay: 50 * time.Millisecond}}
		c, err := node.DialPIRWith(opts, k, addrs...)
		if err != nil {
			return nil, err
		}
		defer c.Close()
		meta = c.Meta()
		ctx := context.Background()
		fetch = func(b geo.BlockID) ([]byte, error) {
			row, _, err := c.Fetch(ctx, pir.TableBitmap, b)
			return row, err
		}
	}

	events, err := trace.SUWorkload(trace.SUConfig{
		Seed:               cfg.Seed,
		Blocks:             meta.Blocks,
		Channels:           meta.Channels,
		MaxEIRPUnits:       max64(meta.MinEIRPUnits, 1),
		RequestsPerHour:    cfg.Rate * 3600,
		ChannelsPerRequest: max(cfg.ChannelsPerRequest, 1),
		Fleet:              cfg.Fleet,
		FleetZipfS:         cfg.FleetZipfS,
		Mobility:           cfg.Mobility,
		ChannelZipfS:       cfg.ChannelZipfS,
		EIRPLevels:         cfg.EIRPLevels,
		Horizon:            cfg.Duration,
	})
	if err != nil {
		return nil, err
	}
	if len(events) == 0 {
		return nil, fmt.Errorf("bench: trace generated no arrivals (rate %g over %v)", cfg.Rate, cfg.Duration)
	}

	report := &LoadReport{
		Mode: cfg.Mode, Backend: "pir",
		Channels: meta.Channels, Blocks: meta.Blocks,
		Fleet: cfg.Fleet, Workers: cfg.Workers, OfferedRate: cfg.Rate,
	}

	r := obs.Default()
	e2eB := &histBracket{stage: "e2e", h: r.Histogram("pisa_load_request_seconds",
		"end-to-end request latency as the load harness sees it (prepare/refresh + process + open)",
		nil, nil)}
	e2eB.before = e2eB.h.Snapshot()

	var grants, denials, errors, retries atomic.Int64
	var (
		errMu    sync.Mutex
		firstErr string
	)
	exec := func(ev trace.SURequest) {
		start := time.Now()
		var row []byte
		var err error
		for attempt := 0; ; attempt++ {
			row, err = fetch(ev.Block)
			if err == nil || attempt >= cfg.MaxRetries {
				break
			}
			retries.Add(1)
		}
		e2eB.h.ObserveSince(start)
		if err != nil {
			errors.Add(1)
			errMu.Lock()
			if firstErr == "" {
				firstErr = err.Error()
			}
			errMu.Unlock()
			return
		}
		available := true
		for c := range ev.EIRPUnits {
			if !pir.BitmapHas(row, c) {
				available = false
				break
			}
		}
		if available {
			grants.Add(1)
		} else {
			denials.Add(1)
		}
	}

	start := time.Now()
	var peakBacklog int64
	switch cfg.Mode {
	case "open":
		var wg sync.WaitGroup
		var backlog atomic.Int64
		for _, ev := range events {
			if d := ev.At - time.Since(start); d > 0 {
				time.Sleep(d)
			}
			wg.Add(1)
			if b := backlog.Add(1); b > peakBacklog {
				peakBacklog = b
			}
			go func(ev trace.SURequest) {
				defer wg.Done()
				defer backlog.Add(-1)
				exec(ev)
			}(ev)
		}
		wg.Wait()
	case "closed":
		var next atomic.Int64
		var wg sync.WaitGroup
		deadline := start.Add(cfg.Duration)
		for w := 0; w < cfg.Workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(deadline) {
					ev := events[int(next.Add(1)-1)%len(events)]
					exec(ev)
					if cfg.Think > 0 {
						time.Sleep(cfg.Think)
					}
				}
			}()
		}
		wg.Wait()
	}
	elapsed := time.Since(start)

	report.DurationSec = elapsed.Seconds()
	report.Requests = grants.Load() + denials.Load() + errors.Load()
	report.Grants = grants.Load()
	report.Denials = denials.Load()
	report.Errors = errors.Load()
	report.Retries = retries.Load()
	report.FirstError = firstErr
	report.PeakBacklog = peakBacklog
	if elapsed > 0 {
		report.AchievedRate = float64(report.Requests-report.Errors) / elapsed.Seconds()
	}
	report.Stages = collectSLOs([]*histBracket{e2eB})
	return report, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
