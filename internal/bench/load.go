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

	"pisa/internal/deploy"
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
// churn (trace.PUSchedule) drive a deployment — one SDC built in
// process by internal/deploy, an in-process PIR replica fleet, or an
// injected target — in open loop (fixed offered rate, backlog grows when the
// service falls behind) or closed loop (N workers, think time). SLOs come from the
// live obs histograms via delta snapshots, so the report reads the
// same series /metrics exposes.

// Front is the SU-facing request path of a deployment under load:
// *pisa.Router in process, *node.SDCClient against a live one.
type Front interface {
	ProcessRequest(req *pisa.TransmissionRequest) (*pisa.Response, error)
	HandlePUUpdate(u *pisa.PUUpdate) error
	EColumn(b geo.BlockID) ([]int64, error)
}

// Registrar is the slice of the STP the fleet needs: *pisa.STP in
// process, *node.STPClient against a live deployment.
type Registrar interface {
	RegisterSU(id string, pk *paillier.PublicKey) error
	GroupKey() *paillier.PublicKey
}

// Target is the deployment under load, as the parts every run has: RunLoad
// builds one in process unless LoadConfig.Target names a Front.
type Target struct {
	Front     Front
	STP       Registrar
	Planner   *watch.Planner
	VerifyKey *rsa.PublicKey
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

	// In-process deployment shape; ignored when Target is injected.
	Channels, Cols, Rows int
	PaillierBits         int
	CacheEntries         int
	// Backend selects the query path: "pisa" (default, the encrypted
	// protocol) or "pir" (multi-server XOR-PIR fleet; Replicas/K size
	// it in process).
	Backend     string
	Replicas, K int

	// Target injects a pre-built deployment (cmd/pisaload's -addr
	// mode) when its Front is set; TargetParams must carry the
	// deployment's pisa.Params (the SUs mint keys of
	// TargetParams.PaillierBits).
	Target       Target
	TargetParams pisa.Params
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
// levels) — the plaintext inputs planner.ComputeF is deterministic in.
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
	if cfg.Backend == "pir" {
		return runPIRLoad(cfg)
	}

	target, params := cfg.Target, cfg.TargetParams
	if target.Front == nil {
		var err error
		params, err = SmallParams(cfg.Channels, cfg.Cols, cfg.Rows, cfg.PaillierBits)
		if err != nil {
			return nil, err
		}
		params.CacheEntries = cfg.CacheEntries
		stp, err := pisa.NewSTP(nil, params.PaillierBits)
		if err != nil {
			return nil, err
		}
		d, err := deploy.New(deploy.Config{Issuer: "load-sdc", Params: params, STP: stp})
		if err != nil {
			return nil, err
		}
		defer d.Close(false)
		front := d.SDC.Router()
		target = Target{Front: front, STP: stp, Planner: front.Planner(), VerifyKey: front.VerifyKey()}
	}
	wp := target.Planner.Params()
	events, err := cfg.arrivals(wp.Grid.Blocks(), wp.Channels, wp.Quantize(wp.SUMaxEIRPmW))
	if err != nil {
		return nil, err
	}

	report := cfg.newReport("pisa", wp.Channels, wp.Grid.Blocks())
	report.PaillierBits = params.PaillierBits

	// Bracket every histogram the report quotes BEFORE any traffic.
	r := obs.Default()
	e2e := e2eBracket()
	brackets := []*histBracket{e2e}
	for _, s := range []string{"snapshot", "aggregate", "blind", "stp_convert", "unblind", "total"} {
		brackets = append(brackets, bracket("sdc_"+s, sdcStage(s)))
	}
	for _, s := range []string{"fanout", "merge", "license", "total"} {
		brackets = append(brackets, bracket("router_"+s, r.Histogram("pisa_router_stage_seconds",
			"per-stage router request processing time (fan-out, merge, license)",
			obs.Labels{"stage": s}, nil)))
	}
	cacheEvents := map[string]func() int64{}
	for _, ev := range []string{"hit", "miss", "stale"} {
		c := r.Counter("pisa_sdc_cache_events_total",
			"encrypted-decision cache events by kind", obs.Labels{"event": ev})
		before := c.Value()
		cacheEvents[ev] = func() int64 { return int64(c.Value() - before) }
	}

	// Fleet state and the request executor shared by both loops.
	var (
		memberMu sync.Mutex
		members  = map[string]*member{}
	)
	var prepared, refreshed atomic.Int64
	var out tally
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
		su, err := pisa.NewSU(rand.Reader, ev.SU, ev.Block, params, target.Planner, target.STP.GroupKey())
		if err == nil {
			if rerr := target.STP.RegisterSU(su.ID(), su.PublicKey()); rerr != nil {
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
		return m, nil
	}
	exec := func(ev trace.SURequest) {
		m, err := getMember(ev)
		if err != nil {
			out.fail(err)
			return
		}
		m.mu.Lock()
		defer m.mu.Unlock()
		if m.su == nil {
			// Queued behind a bring-up that failed and withdrew itself.
			out.fail(fmt.Errorf("bench: SU %s bring-up failed", ev.SU))
			return
		}
		start := time.Now()
		if ev.Block != m.block {
			if err := m.su.MoveTo(ev.Block); err != nil {
				out.fail(err)
				return
			}
			m.block = ev.Block
		}
		key := shapeKey(ev.Block, ev.EIRPUnits)
		var req *pisa.TransmissionRequest
		if base, ok := m.base[key]; ok {
			// Same shape again: RefreshRequest re-sends the request byte
			// for byte, a decision-cache hit at the SDC.
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
			out.fail(err)
			return
		}
		var resp *pisa.Response
		if err := out.retry(cfg.MaxRetries, func() (err error) {
			resp, err = target.Front.ProcessRequest(req)
			return err
		}); err != nil {
			out.fail(err)
			return
		}
		grant, err := m.su.OpenResponse(resp, req, target.VerifyKey)
		e2e.h.ObserveSince(start)
		if err != nil {
			out.fail(err)
			return
		}
		out.decided(grant.Granted)
	}

	// PU churn replay runs alongside the request load: each PU is stood
	// up on its first switch.
	pus := map[watch.PUID]*pisa.PU{}
	churn, err := cfg.replayChurn(wp, func(ev trace.PUSwitch, signal int64) error {
		pu, ok := pus[ev.PU]
		if !ok {
			eCol, err := target.Front.EColumn(ev.Block)
			if err != nil {
				return err
			}
			if pu, err = pisa.NewPU(rand.Reader, ev.PU, ev.Block, eCol, target.STP.GroupKey(), params); err != nil {
				return err
			}
			pus[ev.PU] = pu
		}
		var u *pisa.PUUpdate
		var err error
		if ev.Channel < 0 {
			u, err = pu.Off()
		} else {
			u, err = pu.Tune(ev.Channel, signal)
		}
		if err != nil {
			return err
		}
		return target.Front.HandlePUUpdate(u)
	})
	if err != nil {
		return nil, err
	}

	elapsed, peakBacklog := cfg.drive(events, exec)
	report.PUUpdates, report.PUErrors = churn()

	out.fill(report, elapsed, peakBacklog)
	// A member whose bring-up failed withdrew itself from the fleet.
	report.Registered = int64(len(members))
	report.Prepared = prepared.Load()
	report.Refreshed = refreshed.Load()
	report.CacheHits, report.CacheMisses = cacheEvents["hit"](), cacheEvents["miss"]()
	report.CacheStale = cacheEvents["stale"]()
	if lookups := report.CacheHits + report.CacheMisses + report.CacheStale; lookups > 0 {
		report.CacheHitRate = float64(report.CacheHits) / float64(lookups)
	}
	report.Stages = collectSLOs(brackets)
	return report, nil
}

// arrivals generates the run's SU request trace over a deployment of
// blocks x channels whose SUs ask for at most maxEIRP units.
func (c LoadConfig) arrivals(blocks, channels int, maxEIRP int64) ([]trace.SURequest, error) {
	events, err := trace.SUWorkload(trace.SUConfig{
		Seed:               c.Seed,
		Blocks:             blocks,
		Channels:           channels,
		MaxEIRPUnits:       maxEIRP,
		RequestsPerHour:    c.Rate * 3600,
		ChannelsPerRequest: max(c.ChannelsPerRequest, 1),
		Fleet:              c.Fleet,
		FleetZipfS:         c.FleetZipfS,
		Mobility:           c.Mobility,
		ChannelZipfS:       c.ChannelZipfS,
		EIRPLevels:         c.EIRPLevels,
		Horizon:            c.Duration,
	})
	if err != nil {
		return nil, err
	}
	if len(events) == 0 {
		return nil, fmt.Errorf("bench: trace generated no arrivals (rate %g over %v)", c.Rate, c.Duration)
	}
	return events, nil
}

// newReport starts the report of a run over channels x blocks.
func (c LoadConfig) newReport(backend string, channels, blocks int) *LoadReport {
	return &LoadReport{Mode: c.Mode, Backend: backend, Channels: channels, Blocks: blocks,
		Fleet: c.Fleet, Workers: c.Workers, OfferedRate: c.Rate}
}

// drive dispatches the arrivals to exec — at their trace times in open
// loop, back to back from Workers workers in closed loop — and returns
// how long that took and the peak open-loop backlog.
func (c LoadConfig) drive(events []trace.SURequest, exec func(trace.SURequest)) (time.Duration, int64) {
	start := time.Now()
	var peakBacklog int64
	var wg sync.WaitGroup
	switch c.Mode {
	case "open":
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
	case "closed":
		var next atomic.Int64
		deadline := start.Add(c.Duration)
		for w := 0; w < c.Workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(deadline) {
					// Cycle the trace: shapes repeat across laps, which is
					// exactly the revisit behaviour the fleet model exists
					// to exercise.
					ev := events[int(next.Add(1)-1)%len(events)]
					exec(ev)
					if c.Think > 0 {
						time.Sleep(c.Think)
					}
				}
			}()
		}
	}
	wg.Wait()
	return time.Since(start), peakBacklog
}

// tally counts a run's outcomes, whichever backend served it.
type tally struct {
	grants, denials, errors, retries atomic.Int64

	mu sync.Mutex
	// firstErr preserves the first failure's message.
	firstErr string
}

func (t *tally) fail(err error) {
	t.errors.Add(1)
	t.mu.Lock()
	if t.firstErr == "" && err != nil {
		t.firstErr = err.Error()
	}
	t.mu.Unlock()
}

func (t *tally) decided(granted bool) {
	if granted {
		t.grants.Add(1)
	} else {
		t.denials.Add(1)
	}
}

// retry runs call until it succeeds or maxRetries re-submissions have
// failed too, and returns the last error.
func (t *tally) retry(maxRetries int, call func() error) error {
	for attempt := 0; ; attempt++ {
		err := call()
		if err == nil || attempt >= maxRetries {
			return err
		}
		t.retries.Add(1)
	}
}

// fill writes the outcome counts and rates into the report.
func (t *tally) fill(r *LoadReport, elapsed time.Duration, peakBacklog int64) {
	r.DurationSec = elapsed.Seconds()
	r.Grants, r.Denials, r.Errors = t.grants.Load(), t.denials.Load(), t.errors.Load()
	r.Requests = r.Grants + r.Denials + r.Errors
	r.Retries = t.retries.Load()
	r.FirstError = t.firstErr
	r.PeakBacklog = peakBacklog
	if elapsed > 0 {
		r.AchievedRate = float64(r.Requests-r.Errors) / elapsed.Seconds()
	}
}

// bracket starts a delta bracket on h, reported as stage.
func bracket(stage string, h *obs.Histogram) *histBracket {
	return &histBracket{stage: stage, h: h, before: h.Snapshot()}
}

// sdcStage is the SDC's per-stage request histogram for stage.
func sdcStage(stage string) *obs.Histogram {
	return obs.Default().Histogram("pisa_sdc_request_stage_seconds",
		"per-stage SU request processing time in one SDC (Figure 5, eqs. 11-16; the license is the router's)",
		obs.Labels{"stage": stage}, nil)
}

// e2eBracket brackets the harness's own end-to-end latency histogram.
func e2eBracket() *histBracket {
	return bracket("e2e", obs.Default().Histogram("pisa_load_request_seconds",
		"end-to-end request latency as the load harness sees it (prepare/refresh + process + open)",
		nil, nil))
}

// puSchedule is the run's PU switching schedule over wp's grid and
// channels (trace.PUSchedule), nil when PUs is 0. Both backends replay
// the same one.
func (c LoadConfig) puSchedule(wp watch.Params) ([]trace.PUSwitch, error) {
	if c.PUs == 0 {
		return nil, nil
	}
	return trace.PUSchedule(trace.PUConfig{
		Seed:             c.Seed + 1,
		PUs:              c.PUs,
		Blocks:           wp.Grid.Blocks(),
		Channels:         wp.Channels,
		SwitchesPerHour:  max(c.PUSwitchesPerHour, 1),
		OffProbability:   c.OffProbability,
		ZipfS:            c.PUZipfS,
		DiurnalAmplitude: c.DiurnalAmplitude,
		DiurnalPeriod:    c.Duration, // one compressed TV-viewing day
		Horizon:          c.Duration,
	})
}

// replayChurn walks the run's PU schedule in time order on a goroutine
// of its own, handing each switch to apply at its trace time with the
// signal every PU tunes in at. The returned wait blocks until the
// schedule is spent and reports the switches applied and those apply
// failed.
func (c LoadConfig) replayChurn(wp watch.Params, apply func(ev trace.PUSwitch, signal int64) error) (wait func() (applied, failed int64), err error) {
	schedule, err := c.puSchedule(wp)
	if err != nil {
		return nil, err
	}
	signal := wp.Quantize(wp.SMinPUmW * 100)
	var applied, failed int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		start := time.Now()
		for _, ev := range schedule {
			if d := ev.At - time.Since(start); d > 0 {
				time.Sleep(d)
			}
			if apply(ev, signal) != nil {
				failed++
			} else {
				applied++
			}
		}
	}()
	return func() (int64, int64) {
		<-done
		return applied, failed
	}, nil
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
// trace and PU schedule, over a replica fleet it stands up on loopback:
// each arrival fetches its block's bitmap row obliviously and decides
// the requested channels locally. No registration, no licensing, no decision cache —
// the report's zero cache fields are the honest trade against the PISA
// side.
func runPIRLoad(cfg LoadConfig) (*LoadReport, error) {
	params, err := SmallParams(cfg.Channels, cfg.Cols, cfg.Rows, cfg.PaillierBits)
	if err != nil {
		return nil, err
	}
	k, replicas := max(cfg.K, 2), cfg.Replicas
	if replicas < k {
		replicas = k + 1
	}
	addrs := make([]string, replicas)
	dbs := make([]*pir.Database, replicas)
	for i := range addrs {
		db, err := pir.NewDatabase(params.Watch)
		if err != nil {
			return nil, err
		}
		dbs[i] = db
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
	meta := c.Meta()

	events, err := cfg.arrivals(meta.Blocks, meta.Channels, max(meta.MinEIRPUnits, 1))
	if err != nil {
		return nil, err
	}

	report := cfg.newReport("pir", meta.Channels, meta.Blocks)

	e2e := e2eBracket()
	var out tally
	ctx := context.Background()
	exec := func(ev trace.SURequest) {
		start := time.Now()
		var row []byte
		err := out.retry(cfg.MaxRetries, func() (err error) {
			row, _, err = c.Fetch(ctx, ev.Block)
			return err
		})
		e2e.h.ObserveSince(start)
		if err != nil {
			out.fail(err)
			return
		}
		available := true
		for c := range ev.EIRPUnits {
			if !pir.BitmapHas(row, c) {
				available = false
				break
			}
		}
		out.decided(available)
	}

	// The PISA run's PU schedule, applied to every replica in turn: a
	// fetch whose answers span two versions is refused by the client's
	// version check and retried.
	churn, err := cfg.replayChurn(params.Watch, func(ev trace.PUSwitch, signal int64) error {
		u := &pir.Update{PUID: ev.PU, Block: ev.Block, Channel: ev.Channel, SignalUnits: signal}
		for _, db := range dbs {
			if err := db.ApplyUpdate(u); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	elapsed, peakBacklog := cfg.drive(events, exec)
	report.PUUpdates, report.PUErrors = churn()
	out.fill(report, elapsed, peakBacklog)
	report.Stages = collectSLOs([]*histBracket{e2e})
	return report, nil
}
