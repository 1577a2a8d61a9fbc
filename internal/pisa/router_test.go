package pisa_test

import (
	"crypto/rand"
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pisa/internal/deploy"
	"pisa/internal/geo"
	"pisa/internal/node"
	"pisa/internal/obs"
	"pisa/internal/paillier"
	"pisa/internal/pisa"
	"pisa/internal/propagation"
	"pisa/internal/watch"
)

// testWatchParams mirrors the pisa package's tiny deployment: 5x4
// grid of 10 m blocks, 3 channels.
func testWatchParams(t *testing.T) watch.Params {
	t.Helper()
	g, err := geo.NewGrid(5, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	return watch.Params{
		Channels:    3,
		Grid:        g,
		UnitsPerMW:  1e9,
		SUMaxEIRPmW: 4000,
		SMinPUmW:    1e-5,
		DeltaInt:    32,
		Secondary:   propagation.LogDistance{RefLossDB: 40, Exponent: 3.5},
		WorstCase:   propagation.LogDistance{RefLossDB: 60, Exponent: 4},
	}
}

func TestWindows(t *testing.T) {
	cases := []struct {
		channels, n int
		want        [][2]int
	}{
		{10, 3, [][2]int{{0, 4}, {4, 7}, {7, 10}}},
		{3, 3, [][2]int{{0, 1}, {1, 2}, {2, 3}}},
		{8, 1, [][2]int{{0, 8}}},
		{7, 2, [][2]int{{0, 4}, {4, 7}}},
	}
	for _, tc := range cases {
		got, err := pisa.Windows(tc.channels, tc.n)
		if err != nil {
			t.Fatalf("Windows(%d, %d): %v", tc.channels, tc.n, err)
		}
		if len(got) != len(tc.want) {
			t.Fatalf("Windows(%d, %d) = %v, want %v", tc.channels, tc.n, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("Windows(%d, %d)[%d] = %v, want %v", tc.channels, tc.n, i, got[i], tc.want[i])
			}
		}
	}
	if _, err := pisa.Windows(3, 0); err == nil {
		t.Error("Windows(3, 0) accepted")
	}
	if _, err := pisa.Windows(3, 4); err == nil {
		t.Error("Windows(3, 4) accepted")
	}
}

// shardedWorld is one monolithic SDC, an N-window partition sharing the
// same STP — one deploy.New per window behind pisa.NewRouter, as N
// `sdcd -shard-index` daemons run behind cmd/sdcrouterd — and the
// plaintext oracle both must agree with.
type shardedWorld struct {
	params pisa.Params
	stp    *pisa.STP
	mono   *pisa.SDC
	shards []*pisa.SDC
	router *pisa.Router
	oracle *watch.System
}

// newShardedWorld builds the worlds at TestParams' four slots per
// ciphertext, or — oneSlot — with the blinding factor widened until a
// single slot fills the modulus: the paper's one-cell-per-ciphertext
// layout, run by the same pipeline.
func newShardedWorld(t *testing.T, oneSlot bool, n int) *shardedWorld {
	t.Helper()
	wp := testWatchParams(t)
	params := pisa.TestParams(wp)
	want := 4
	if oneSlot {
		params.AlphaBits = params.PaillierBits/2 - params.PlaintextBits
		want = 1
	}
	if k := params.PackSlots(); k != want {
		t.Fatalf("parameters pack %d slots per ciphertext, want %d", k, want)
	}
	stp, err := pisa.NewSTP(rand.Reader, params.PaillierBits)
	if err != nil {
		t.Fatalf("NewSTP: %v", err)
	}
	build := func(windows, index int) *pisa.SDC {
		d, err := deploy.New(deploy.Config{Issuer: "sdc", Params: params, STP: stp, Windows: windows, Index: index})
		if err != nil {
			t.Fatalf("deploy window %d of %d: %v", index, windows, err)
		}
		t.Cleanup(func() { d.Close(false) })
		return d.SDC
	}
	w := &shardedWorld{params: params, stp: stp, mono: build(0, 0)}
	services := make([]pisa.ShardService, n)
	for i := range services {
		w.shards = append(w.shards, build(n, i))
		services[i] = w.shards[i]
	}
	if w.router, err = pisa.NewRouter("sdc", params, nil, stp, services); err != nil {
		t.Fatalf("router: %v", err)
	}
	if w.oracle, err = watch.NewSystem(wp, nil); err != nil {
		t.Fatalf("oracle: %v", err)
	}
	return w
}

// ask runs one request through the monolithic SDC, the sharded
// router, and the plaintext oracle, asserts three-way decision
// parity, and returns the decision.
func (w *shardedWorld) ask(t *testing.T, su *pisa.SU, eirp map[int]int64, block geo.BlockID) bool {
	t.Helper()
	req, err := su.PrepareRequest(eirp, geo.Disclosure{})
	if err != nil {
		t.Fatalf("PrepareRequest: %v", err)
	}
	monoResp, err := w.mono.ProcessRequest(req)
	if err != nil {
		t.Fatalf("monolithic ProcessRequest: %v", err)
	}
	monoGrant, err := su.OpenResponse(monoResp, req, w.mono.VerifyKey())
	if err != nil {
		t.Fatalf("open monolithic response: %v", err)
	}
	shardResp, err := w.router.ProcessRequest(req)
	if err != nil {
		t.Fatalf("router ProcessRequest: %v", err)
	}
	shardGrant, err := su.OpenResponse(shardResp, req, w.router.VerifyKey())
	if err != nil {
		t.Fatalf("open sharded response: %v", err)
	}
	if shardGrant.Granted != monoGrant.Granted {
		t.Fatalf("sharded decision %v, monolithic %v", shardGrant.Granted, monoGrant.Granted)
	}
	if shardGrant.Granted && len(shardGrant.Signature) == 0 {
		t.Fatal("sharded grant recovered no signature")
	}
	if !shardGrant.Granted && shardGrant.Signature != nil {
		t.Fatal("sharded denial recovered a signature")
	}
	dec, err := w.oracle.Evaluate(watch.Request{Block: block, EIRPUnits: eirp})
	if err != nil {
		t.Fatalf("oracle Evaluate: %v", err)
	}
	if dec.Granted != shardGrant.Granted {
		t.Fatalf("oracle decision %v, sharded %v", dec.Granted, shardGrant.Granted)
	}
	return shardGrant.Granted
}

// tune pushes one PU update through the monolithic SDC, the router
// broadcast, and the oracle.
func (w *shardedWorld) tune(t *testing.T, pu *pisa.PU, channel int, signal int64) {
	t.Helper()
	u, err := pu.Tune(channel, signal)
	if err != nil {
		t.Fatalf("Tune: %v", err)
	}
	if err := w.mono.HandlePUUpdate(u); err != nil {
		t.Fatalf("monolithic HandlePUUpdate: %v", err)
	}
	if err := w.router.HandlePUUpdate(u); err != nil {
		t.Fatalf("router HandlePUUpdate: %v", err)
	}
	if err := w.oracle.UpdatePU(pu.ID(), watch.Registration{
		Block: u.Block, Channel: channel, SignalUnits: signal,
	}); err != nil {
		t.Fatalf("oracle UpdatePU: %v", err)
	}
}

// TestShardedParity runs the PU lifecycle against sharded and
// monolithic deployments at k = 1 and k = 4 slots per ciphertext, both
// built by internal/deploy, and asserts every decision matches the
// watch oracle.
func TestShardedParity(t *testing.T) {
	for _, tc := range []struct {
		name    string
		oneSlot bool
		shards  int
	}{
		{"k=1/3", true, 3},
		{"packed/3", false, 3},
		{"packed/2", false, 2},
		{"packed/1", false, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newShardedWorld(t, tc.oneSlot, tc.shards)
			su, err := pisa.NewSU(rand.Reader, "su-1", 7, w.params, w.router.Planner(), w.stp.GroupKey())
			if err != nil {
				t.Fatalf("NewSU: %v", err)
			}
			if err := w.stp.RegisterSU(su.ID(), su.PublicKey()); err != nil {
				t.Fatalf("RegisterSU: %v", err)
			}
			eirp := map[int]int64{1: w.params.Watch.Quantize(w.params.Watch.SUMaxEIRPmW)}
			if !w.ask(t, su, eirp, 7) {
				t.Fatal("denied before any PU is active")
			}

			// Activate a PU next door; the max-power request must flip
			// to denial in all three worlds.
			eCol, err := w.router.EColumn(8)
			if err != nil {
				t.Fatalf("EColumn: %v", err)
			}
			pu, err := pisa.NewPU(rand.Reader, "tv-1", 8, eCol, w.stp.GroupKey(), w.params)
			if err != nil {
				t.Fatalf("NewPU: %v", err)
			}
			w.tune(t, pu, 1, w.params.Watch.Quantize(w.params.Watch.SMinPUmW))
			if w.ask(t, su, eirp, 7) {
				t.Fatal("granted next to a weak active PU")
			}

			// A different channel is unaffected by the PU.
			if !w.ask(t, su, map[int]int64{0: eirp[1]}, 7) {
				t.Fatal("denied on a channel with no PU")
			}

			// Re-asking the denied shape exercises the per-shard cache
			// hit path; the decision must not change.
			if w.ask(t, su, eirp, 7) {
				t.Fatal("cached sharded decision flipped to grant")
			}
		})
	}
}

// TestWindowedSDCRefusesDirectRequests pins the guard that keeps a
// window-local decision from masquerading as the whole-matrix one.
func TestWindowedSDCRefusesDirectRequests(t *testing.T) {
	wp := testWatchParams(t)
	params := pisa.TestParams(wp)
	stp, err := pisa.NewSTP(rand.Reader, params.PaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	s, err := pisa.NewSDC("shard", params, nil, stp, pisa.WithChannelWindow(0, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	su, err := pisa.NewSU(rand.Reader, "su-1", 7, params, s.Planner(), stp.GroupKey())
	if err != nil {
		t.Fatal(err)
	}
	if err := stp.RegisterSU(su.ID(), su.PublicKey()); err != nil {
		t.Fatal(err)
	}
	req, err := su.PrepareRequest(map[int]int64{0: 1}, geo.Disclosure{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ProcessRequest(req); err == nil || !strings.Contains(err.Error(), "shard router") {
		t.Fatalf("windowed ProcessRequest error = %v, want shard-router refusal", err)
	}
	if lo, hi := s.ChannelWindow(); lo != 0 || hi != 2 {
		t.Fatalf("ChannelWindow = [%d, %d), want [0, 2)", lo, hi)
	}
	if s.Router() != nil || s.VerifyKey() != nil {
		t.Fatal("a windowed SDC has a router or a license key of its own")
	}
	// ProcessShard on the same instance works on the request sliced to
	// its window, as a router sends it, and answers with the window's
	// grant indicator.
	sub := *req
	if sub.FP, err = req.FP.ChannelSlice(0, 2); err != nil {
		t.Fatal(err)
	}
	ans, err := s.ProcessShard(&sub)
	if err != nil {
		t.Fatalf("ProcessShard: %v", err)
	}
	if len(ans.D) != 1 || ans.D[0] == nil {
		t.Fatalf("ProcessShard answer %+v, want one grant indicator", ans)
	}
}

// TestRouterRefusesMisassignedShards: a router whose shards own other
// windows than the ones it slices for — listed out of order, or started
// with another shard count — fails the request rather than decide on the
// rows some shard happened to test. The schedule is one such a router
// would grant against the oracle: a weak PU on channel 0 next door to an
// SU asking for maximum power on channel 0, which the shard listed first
// never tests when the windows are listed 1, 0, 2.
func TestRouterRefusesMisassignedShards(t *testing.T) {
	wp := testWatchParams(t)
	wp.Channels = 9
	params := pisa.TestParams(wp)
	stp, err := pisa.NewSTP(rand.Reader, params.PaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	windows, err := pisa.Windows(wp.Channels, 3)
	if err != nil {
		t.Fatal(err)
	}
	sdcs := make([]*pisa.SDC, len(windows))
	for i, w := range windows {
		if sdcs[i], err = pisa.NewSDC("shard", params, nil, stp, pisa.WithChannelWindow(w[0], w[1])); err != nil {
			t.Fatal(err)
		}
		defer sdcs[i].Close()
	}
	oracle, err := watch.NewSystem(wp, nil)
	if err != nil {
		t.Fatal(err)
	}
	eCol, err := sdcs[0].EColumn(8)
	if err != nil {
		t.Fatal(err)
	}
	pu, err := pisa.NewPU(rand.Reader, "tv-1", 8, eCol, stp.GroupKey(), params)
	if err != nil {
		t.Fatal(err)
	}
	signal := wp.Quantize(wp.SMinPUmW)
	upd, err := pu.Tune(0, signal)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sdcs {
		if err := s.HandlePUUpdate(upd); err != nil {
			t.Fatal(err)
		}
	}
	if err := oracle.UpdatePU(pu.ID(), watch.Registration{Block: 8, Channel: 0, SignalUnits: signal}); err != nil {
		t.Fatal(err)
	}
	su, err := pisa.NewSU(rand.Reader, "su-1", 7, params, sdcs[0].Planner(), stp.GroupKey())
	if err != nil {
		t.Fatal(err)
	}
	if err := stp.RegisterSU(su.ID(), su.PublicKey()); err != nil {
		t.Fatal(err)
	}
	eirp := map[int]int64{0: wp.Quantize(wp.SUMaxEIRPmW)}
	want, err := oracle.Evaluate(watch.Request{Block: 7, EIRPUnits: eirp})
	if err != nil || want.Granted {
		t.Fatalf("oracle granted %v (err %v); the schedule must be a denial", want.Granted, err)
	}
	for _, tc := range []struct {
		name  string
		order []int
		fails bool
	}{
		{"windows in order", []int{0, 1, 2}, false},
		{"windows listed 1, 0, 2", []int{1, 0, 2}, true},
		{"windows 0 and 1 of three", []int{0, 1}, true},
	} {
		services := make([]pisa.ShardService, len(tc.order))
		for i, w := range tc.order {
			services[i] = sdcs[w]
		}
		router, err := pisa.NewRouter("router", params, nil, stp, services)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		req, err := su.PrepareRequest(eirp, geo.Disclosure{})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := router.ProcessRequest(req)
		switch {
		case tc.fails && err == nil:
			grant, err := su.OpenResponse(resp, req, router.VerifyKey())
			t.Errorf("%s: router answered (granted=%v, err %v; oracle granted=false), want a refusal", tc.name, grant.Granted, err)
		case tc.fails && !strings.Contains(err.Error(), "partition differs"):
			t.Errorf("%s: error %v, want one naming the differing partition", tc.name, err)
		case !tc.fails && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case !tc.fails:
			if grant, err := su.OpenResponse(resp, req, router.VerifyKey()); err != nil || grant.Granted {
				t.Errorf("%s: granted %v (err %v), oracle denied", tc.name, grant.Granted, err)
			}
		}
	}
}

// TestMonolithIsOneShardRouter: a full-window SDC serves an SU request
// through a one-shard router over itself. The request passes the router
// once and the SDC pipeline once, the two share one public
// precomputation and one SU-key cache, and the SDC's clock reaches the
// router's licenser, which issues for the 24 h validity window.
func TestMonolithIsOneShardRouter(t *testing.T) {
	wp := testWatchParams(t)
	params := pisa.TestParams(wp)
	stp, err := pisa.NewSTP(rand.Reader, params.PaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(time.Now().Unix(), 0)
	sdc, err := pisa.NewSDC("mono", params, nil, stp,
		pisa.WithClock(func() time.Time { return now }))
	if err != nil {
		t.Fatal(err)
	}
	defer sdc.Close()
	router := sdc.Router()
	if router == nil {
		t.Fatal("full-window SDC has no router")
	}
	if lo, hi := router.Window(0); lo != 0 || hi != wp.Channels {
		t.Fatalf("one-shard router window [%d, %d), want [0, %d)", lo, hi, wp.Channels)
	}
	if router.Planner() != sdc.Planner() {
		t.Fatal("the SDC and its router hold two public precomputations")
	}
	if router.VerifyKey() != sdc.VerifyKey() {
		t.Fatal("the SDC's verify key is not its router's")
	}
	su, err := pisa.NewSU(rand.Reader, "su-one", 7, params, sdc.Planner(), stp.GroupKey())
	if err != nil {
		t.Fatal(err)
	}
	if err := stp.RegisterSU(su.ID(), su.PublicKey()); err != nil {
		t.Fatal(err)
	}
	req, err := su.PrepareRequest(map[int]int64{1: 1}, geo.Disclosure{})
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.Default()
	counters := map[string]*obs.Counter{
		"router": reg.Counter("pisa_router_requests_total", "", nil),
		"sdc":    reg.Counter("pisa_sdc_requests_total", "", nil),
		"miss":   reg.Counter("pisa_sdc_sukey_cache_events_total", "", obs.Labels{"event": "miss"}),
	}
	before := map[string]uint64{}
	for name, c := range counters {
		before[name] = c.Value()
	}
	resp, err := sdc.ProcessRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range counters {
		if d := c.Value() - before[name]; d != 1 {
			t.Errorf("one request moved the %s counter by %d, want 1", name, d)
		}
	}
	if lic := resp.License; lic.Serial != 1 || lic.IssuedUnix != now.Unix() || lic.ExpiresUnix != now.Add(24*time.Hour).Unix() {
		t.Errorf("license serial %d issued %d expires %d; want 1, %d, %d",
			lic.Serial, lic.IssuedUnix, lic.ExpiresUnix, now.Unix(), now.Add(24*time.Hour).Unix())
	}
	grant, err := su.OpenResponse(resp, req, sdc.VerifyKey())
	if err != nil || !grant.Granted {
		t.Fatalf("open response: granted %v, err %v; want a grant on a free channel", grant.Granted, err)
	}
}

// TestOnlyTheRouterIssues: in a sharded deployment the router is the
// one issuer. Its serials strictly increase, the shards never consume
// one, and a shard behind a server refuses the license-key request.
func TestOnlyTheRouterIssues(t *testing.T) {
	w := newShardedWorld(t, false, 2)
	su, err := pisa.NewSU(rand.Reader, "su-1", 7, w.params, w.router.Planner(), w.stp.GroupKey())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.stp.RegisterSU(su.ID(), su.PublicKey()); err != nil {
		t.Fatal(err)
	}
	var last uint64
	for i := 0; i < 3; i++ {
		req, err := su.PrepareRequest(map[int]int64{1: 1}, geo.Disclosure{})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := w.router.ProcessRequest(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.License.Serial <= last {
			t.Fatalf("request %d: serial %d after %d", i, resp.License.Serial, last)
		}
		last = resp.License.Serial
	}
	for i, s := range w.shards {
		if serial := s.Summary().Serial; serial != 0 {
			t.Errorf("shard %d consumed serials up to %d", i, serial)
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := node.NewSDCServer(w.shards[0], nil, time.Minute)
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	cli := node.DialSDC(ln.Addr().String(), time.Minute)
	defer cli.Close()
	if _, err := cli.VerifyKey(); err == nil || !strings.Contains(err.Error(), "ask the router") {
		t.Fatalf("VerifyKey from a shard server: error = %v, want a refusal naming the router", err)
	}
}

// failingService fails every every-th ProcessShard call of the shard it
// wraps (every = 1: all of them), so the fan-out hits its error path.
type failingService struct {
	pisa.ShardService
	every int64
	calls *atomic.Int64
}

func (f failingService) ProcessShard(req *pisa.TransmissionRequest) (*pisa.ShardAnswer, error) {
	if f.calls.Add(1)%f.every == 0 {
		return nil, errors.New("injected shard failure")
	}
	return f.ShardService.ProcessShard(req)
}

// newFailingRouter is a 3-shard router whose shard 1 fails every
// every-th call, and a request for it.
func newFailingRouter(t *testing.T, every int64) (*pisa.Router, *pisa.TransmissionRequest) {
	t.Helper()
	wp := testWatchParams(t)
	params := pisa.TestParams(wp)
	stp, err := pisa.NewSTP(rand.Reader, params.PaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	windows, err := pisa.Windows(wp.Channels, 3)
	if err != nil {
		t.Fatal(err)
	}
	services := make([]pisa.ShardService, len(windows))
	for i, w := range windows {
		s, err := pisa.NewSDC("shard", params, nil, stp, pisa.WithChannelWindow(w[0], w[1]))
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		t.Cleanup(s.Close)
		services[i] = s
	}
	services[1] = failingService{services[1], every, new(atomic.Int64)}
	router, err := pisa.NewRouter("router", params, nil, stp, services)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	su, err := pisa.NewSU(rand.Reader, "su-1", 7, params, router.Planner(), stp.GroupKey())
	if err != nil {
		t.Fatal(err)
	}
	if err := stp.RegisterSU(su.ID(), su.PublicKey()); err != nil {
		t.Fatal(err)
	}
	req, err := su.PrepareRequest(map[int]int64{1: 1}, geo.Disclosure{})
	if err != nil {
		t.Fatal(err)
	}
	return router, req
}

// routerSeriesDelta reads the router's request counters and the count
// of every stage and per-shard histogram of a 3-shard router, and
// returns a func that reports how far each has grown since. The series
// must already be registered: call it after the router has taken one
// request.
func routerSeriesDelta() func() map[string]uint64 {
	reg := obs.Default()
	series := map[string]func() uint64{
		"requests": reg.Counter("pisa_router_requests_total", "", nil).Value,
		"errors":   reg.Counter("pisa_router_request_errors_total", "", nil).Value,
	}
	for _, stage := range []string{"fanout", "merge", "license", "total"} {
		series[stage] = reg.Histogram("pisa_router_stage_seconds", "", obs.Labels{"stage": stage}, nil).Count
	}
	for _, shard := range []string{"0", "1", "2"} {
		series["shard"+shard] = reg.Histogram("pisa_router_shard_seconds", "", obs.Labels{"shard": shard}, nil).Count
	}
	before := map[string]uint64{}
	for name, read := range series {
		before[name] = read()
	}
	return func() map[string]uint64 {
		d := map[string]uint64{}
		for name, read := range series {
			d[name] = read() - before[name]
		}
		return d
	}
}

// TestRouterStatsOnShardError pins the failover accounting: when one
// shard errors, the calls of the shards that DID complete, and the
// failed call itself, still land in pisa_router_shard_seconds, and the
// request is counted as an error; the stages after the fan-out never
// ran and are not timed.
func TestRouterStatsOnShardError(t *testing.T) {
	router, req := newFailingRouter(t, 1)
	// The first request registers every series read below.
	if _, err := router.ProcessRequest(req); err == nil {
		t.Fatal("ProcessRequest succeeded with shard 1 failing every call")
	}
	delta := routerSeriesDelta()
	if _, err := router.ProcessRequest(req); err == nil || !strings.Contains(err.Error(), "shard 1") {
		t.Fatalf("ProcessRequest error = %v, want a shard 1 failure", err)
	}
	want := map[string]uint64{
		"requests": 1, "errors": 1, "total": 1,
		"fanout": 0, "merge": 0, "license": 0,
		"shard0": 1, "shard1": 1, "shard2": 1,
	}
	for name, d := range delta() {
		if d != want[name] {
			t.Errorf("%s grew by %d over one failed request, want %d", name, d, want[name])
		}
	}
}

// TestRouterSummaryMeansUnderShardErrors pins the split the router's
// series give when shard 1 fails every other request: every shard call
// lands in pisa_router_shard_seconds, the failed ones included, while
// the fan-out, merge and license stages are timed only for the
// requests that completed, and the request counters tell the two
// apart — so a mean per completed request and a mean per request can
// both be read off them.
func TestRouterSummaryMeansUnderShardErrors(t *testing.T) {
	router, req := newFailingRouter(t, 2)
	// The first request succeeds and registers every series read below.
	if _, err := router.ProcessRequest(req); err != nil {
		t.Fatal(err)
	}
	delta := routerSeriesDelta()
	for i := 0; i < 4; i++ {
		if _, err := router.ProcessRequest(req); (err != nil) != (i%2 == 0) {
			t.Fatalf("request %d: error = %v, want every other one to fail", i, err)
		} else if err != nil && !strings.Contains(err.Error(), "shard 1") {
			t.Fatalf("request %d: error = %v, want a shard 1 failure", i, err)
		}
	}
	want := map[string]uint64{
		"requests": 4, "errors": 2, "total": 4,
		"fanout": 2, "merge": 2, "license": 2,
		"shard0": 4, "shard1": 4, "shard2": 4,
	}
	for name, d := range delta() {
		if d != want[name] {
			t.Errorf("%s grew by %d over 4 requests, want %d", name, d, want[name])
		}
	}
}

// fixedShard is a shard that answers every query with the same grant
// indicators, whatever the request.
type fixedShard struct{ d []*paillier.Ciphertext }

func (f fixedShard) ProcessShard(*pisa.TransmissionRequest) (*pisa.ShardAnswer, error) {
	return &pisa.ShardAnswer{D: f.d}, nil
}

func (fixedShard) HandlePUUpdate(*pisa.PUUpdate) error { return nil }

// TestRouterNeverAddsIndicators is the cancellation case: the digits of
// a grant indicator carry the random sign of the shard's epsilon, so one
// shard's failed test can read -2 where another's reads +2 in the same
// slot. A router that merged partials by homomorphic addition — as it
// added the per-shard sign sums before the answer was packed — would
// turn the two denials into a 0 and a valid license. Each indicator is
// masked under its own eta instead, and the request is denied; with
// both indicators 0 the same path grants, so the denial is the
// indicators' doing.
func TestRouterNeverAddsIndicators(t *testing.T) {
	wp := testWatchParams(t)
	params := pisa.TestParams(wp)
	stp, err := pisa.NewSTP(rand.Reader, params.PaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	planner, err := watch.NewPlanner(wp)
	if err != nil {
		t.Fatal(err)
	}
	su, err := pisa.NewSU(rand.Reader, "su-cancel", 7, params, planner, stp.GroupKey())
	if err != nil {
		t.Fatal(err)
	}
	if err := stp.RegisterSU(su.ID(), su.PublicKey()); err != nil {
		t.Fatal(err)
	}
	req, err := su.PrepareRequest(map[int]int64{1: 1}, geo.Disclosure{})
	if err != nil {
		t.Fatal(err)
	}
	indicator := func(v int64) []*paillier.Ciphertext {
		ct, err := su.PublicKey().EncryptInt(rand.Reader, v)
		if err != nil {
			t.Fatal(err)
		}
		return []*paillier.Ciphertext{ct}
	}
	for _, tc := range []struct {
		name    string
		a, b    int64
		granted bool
	}{
		{"-2 and +2 in one slot", -2, 2, false},
		{"+2 and -2 one slot up", 2 << 6, -(2 << 6), false},
		{"one shard fails", 0, 2, false},
		{"both pass", 0, 0, true},
	} {
		router, err := pisa.NewRouter("router", params, nil, stp,
			[]pisa.ShardService{fixedShard{indicator(tc.a)}, fixedShard{indicator(tc.b)}})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := router.ProcessRequest(req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		grant, err := su.OpenResponse(resp, req, router.VerifyKey())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if grant.Granted != tc.granted {
			t.Errorf("%s: granted = %v, want %v", tc.name, grant.Granted, tc.granted)
		}
	}
}
