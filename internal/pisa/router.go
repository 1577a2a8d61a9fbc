package pisa

import (
	"crypto/rand"
	"crypto/rsa"
	"fmt"
	"strconv"
	"sync"
	"time"

	"pisa/internal/obs"
	"pisa/internal/paillier"
	"pisa/internal/parallel"
	"pisa/internal/watch"
)

// The Router is every deployment's SU-facing request front (DESIGN.md
// §15). The C×B encrypted budget matrix is partitioned into N contiguous
// channel windows, each owned by an SDC instance with its own WAL,
// decision cache and STP link, and the Router fans each SU request out
// to every window, then masks the single license with every window's
// grant indicator (eq. 17). A monolithic deployment is the same Router at
// N = 1: a full-window SDC serves its requests through a one-shard router
// over itself (SDC.Router).
//
// Channel-partitioning is privacy-neutral: every shard still sees
// every block of the request and every PU update ciphertext, exactly
// the view a single SDC has — unlike block-partitioning, which would
// hand each shard a location-correlated subset. And because the
// request is granted exactly when every (channel, block) test passes,
// each shard's indicator — zero iff its own tests passed — enters
// eq. 17's masked-license exponent as one more term under the SU's
// key; no shard ever holds a decryptable decision, and only the router
// signs licenses.

// ShardService is the per-shard surface the Router fans out to. A local
// *SDC satisfies it directly; a remote shard is reached through
// node.SDCClient (which adds pooling, retries and replica failover).
type ShardService interface {
	ProcessShard(*TransmissionRequest) (*ShardAnswer, error)
	HandlePUUpdate(*PUUpdate) error
}

// Windows partitions C channels into n contiguous near-equal windows
// [lo, hi); the first channels%n windows are one channel larger. Shard
// i of an N-shard deployment owns Windows(C, N)[i] — the router and
// the shard constructors must agree on this assignment.
func Windows(channels, n int) ([][2]int, error) {
	if n < 1 {
		return nil, fmt.Errorf("pisa: need at least 1 shard, got %d", n)
	}
	if n > channels {
		return nil, fmt.Errorf("pisa: %d shards exceed %d channels", n, channels)
	}
	out := make([][2]int, n)
	base, rem := channels/n, channels%n
	lo := 0
	for i := range out {
		size := base
		if i < rem {
			size++
		}
		out[i] = [2]int{lo, lo + size}
		lo += size
	}
	return out, nil
}

// Router fans SU requests out to the shards and owns what the shards
// do not have: the deployment's licenser and the merged grant decision.
// It satisfies SDCService, so node.SDCServer and the benches drive it
// like any other front. Planner and EColumn come from its public data.
type Router struct {
	*publicData
	suKeys  *SUKeyCache // the license tail encrypts under these
	lic     *Licenser
	shards  []ShardService
	windows [][2]int

	mu    sync.Mutex
	stats RouterStats
}

// RouterStats are the router's cumulative counters, one struct per
// Router (the obs registry aggregates process-wide). Stage fields are
// summed nanoseconds. FanoutNs and ShardNs grow on every request that
// reached the fan-out, failed ones included; MergeNs and LicenseNs only
// on the Requests - Errors that completed — LogAttrs divides each by its
// own count. ShardNs[i] sums shard i's ProcessShard latency as seen by
// the router (queueing, transport and failover included for remote
// shards).
type RouterStats struct {
	Requests  uint64
	Errors    uint64
	Updates   uint64
	FanoutNs  int64
	MergeNs   int64
	LicenseNs int64
	ShardNs   []int64
}

// LogAttrs is the shutdown digest of a router as slog key/value pairs:
// request/update volume, the mean per-stage split (fan-out, merge,
// license) and each shard's mean service time.
func (st RouterStats) LogAttrs() []any {
	attrs := []any{"requests", st.Requests, "errors", st.Errors, "updates", st.Updates}
	meanMs := func(ns int64, n uint64) float64 { return float64(ns) / float64(n) / 1e6 }
	if st.Requests > 0 {
		attrs = append(attrs, "fanoutMeanMs", meanMs(st.FanoutNs, st.Requests))
		for i, ns := range st.ShardNs {
			attrs = append(attrs, fmt.Sprintf("shard%dMeanMs", i), meanMs(ns, st.Requests))
		}
	}
	if done := st.Requests - st.Errors; done > 0 {
		attrs = append(attrs,
			"mergeMeanMs", meanMs(st.MergeNs, done),
			"licenseMeanMs", meanMs(st.LicenseNs, done))
	}
	return attrs
}

// NewRouter builds a router over the given shards. Shard i must own
// the channel window Windows(C, len(shards))[i] — the router slices
// each request along those windows and a mismatched shard would
// silently contribute nothing. The router builds the deployment's
// licenser: in a sharded deployment it is the issuer, and the shards
// have none.
func NewRouter(issuer string, params Params, transmitters []watch.TVTransmitter, stp STPService, shards []ShardService) (*Router, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if stp == nil {
		return nil, fmt.Errorf("pisa: router requires an STP service")
	}
	public, err := newPublicData(params.Watch, transmitters)
	if err != nil {
		return nil, err
	}
	lic, err := newLicenser(issuer, params, rand.Reader, nil, 0)
	if err != nil {
		return nil, err
	}
	return newRouter(public, newSUKeyCache(stp), lic, shards)
}

// newRouter assembles a router from its parts: NewRouter's own, or those
// a full-window SDC shares with the one-shard router over itself.
func newRouter(public *publicData, suKeys *SUKeyCache, lic *Licenser, shards []ShardService) (*Router, error) {
	for i, sh := range shards {
		if sh == nil {
			return nil, fmt.Errorf("pisa: shard %d is nil", i)
		}
	}
	windows, err := Windows(public.public.Params().Channels, len(shards))
	if err != nil {
		return nil, err
	}
	return &Router{
		publicData: public,
		suKeys:     suKeys,
		lic:        lic,
		shards:     shards,
		windows:    windows,
		stats:      RouterStats{ShardNs: make([]int64, len(shards))},
	}, nil
}

// Window reports the channel window [lo, hi) assigned to shard i.
func (r *Router) Window(i int) (lo, hi int) { return r.windows[i][0], r.windows[i][1] }

// VerifyKey returns the public key SUs use to check license
// signatures — the router's own, since only the router signs.
func (r *Router) VerifyKey() *rsa.PublicKey { return r.lic.VerifyKey() }

// Stats snapshots the router's counters.
func (r *Router) Stats() RouterStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.stats
	out.ShardNs = append([]int64(nil), r.stats.ShardNs...)
	return out
}

// sliceFor returns req restricted to shard i's channel window: same
// coordinates and dimensions, only the window rows populated, shared
// ciphertext pointers (matrix channel-slice views). For a remote shard
// this is what crosses the wire — 1/N of the request bytes.
func (r *Router) sliceFor(req *TransmissionRequest, i int) (*TransmissionRequest, error) {
	w := r.windows[i]
	sub := *req
	fp, err := req.FP.ChannelSlice(w[0], w[1])
	if err != nil {
		return nil, err
	}
	sub.FP = fp
	return &sub, nil
}

// ProcessRequest executes Figure 5 steps 3-11 for one SU request across
// the shards: slice the request along the channel windows, fan the
// slices out (ProcessShard on every shard), collect the shards' grant
// indicators, and issue the single license masked with every one of
// them (eq. 17). The windows partition the channel rows, so the
// indicators range over precisely the (channel, block) tests of the
// whole matrix, whatever the shard count. The router cannot tell from
// anything it computes whether the request was granted.
func (r *Router) ProcessRequest(req *TransmissionRequest) (resp *Response, err error) {
	m := routerMetrics()
	m.requests.Inc()
	start := time.Now()
	defer func() {
		m.stage["total"].ObserveSince(start)
		r.mu.Lock()
		r.stats.Requests++
		if err != nil {
			r.stats.Errors++
		}
		r.mu.Unlock()
		if err != nil {
			m.requestErrors.Inc()
		}
	}()
	if req == nil {
		return nil, fmt.Errorf("pisa: nil request")
	}
	if req.SUID == "" {
		return nil, fmt.Errorf("pisa: request missing SU id")
	}
	// The license digest binds the ORIGINAL request — the slices are a
	// routing artifact the SU never sees. Digest also rejects a request
	// without a matrix before any shard is touched.
	digest, err := req.Digest()
	if err != nil {
		return nil, err
	}
	suKey, err := r.suKeys.Get(req.SUID)
	if err != nil {
		return nil, err
	}

	// Fan-out: each shard runs its slice through the full per-shard
	// pipeline (snapshot, cache, aggregate, blind, STP, unblind).
	stageStart := time.Now()
	n := len(r.shards)
	answers := make([]*ShardAnswer, n)
	shardNs := make([]int64, n)
	errs := make([]error, n)
	_ = parallel.For(n, n, func(i int) error {
		sub, err := r.sliceFor(req, i)
		if err != nil {
			errs[i] = err
			return nil
		}
		if sub.Ciphertexts() == 0 {
			// Nothing of the request falls in this shard's window; an
			// answer without indicators needs no round trip.
			answers[i] = &ShardAnswer{}
			return nil
		}
		t0 := time.Now()
		answers[i], errs[i] = r.shards[i].ProcessShard(sub)
		shardNs[i] = time.Since(t0).Nanoseconds()
		m.shardCall(i).ObserveSince(t0)
		return nil
	})
	// Merge fan-out timings before inspecting errors: during failover
	// the shards that DID complete still did the work, and dropping
	// their latencies would make the shutdown summary under-report
	// exactly when a shard is misbehaving.
	fanoutNs := time.Since(stageStart).Nanoseconds()
	r.mu.Lock()
	r.stats.FanoutNs += fanoutNs
	for i, ns := range shardNs {
		r.stats.ShardNs[i] += ns
	}
	r.mu.Unlock()
	for i, e := range errs {
		if e != nil {
			return nil, fmt.Errorf("shard %d: %w", i, e)
		}
	}
	m.stage["fanout"].ObserveSince(stageStart)

	// Merge: collect the shards' grant indicators. They are not added
	// up — digits of different shards could cancel (ShardAnswer) — but
	// masked one by one in the license tail.
	stageStart = time.Now()
	var ds []*paillier.Ciphertext
	for i, ans := range answers {
		if ans == nil {
			return nil, fmt.Errorf("shard %d: nil answer", i)
		}
		ds = append(ds, ans.D...)
	}
	if len(ds) == 0 {
		return nil, fmt.Errorf("pisa: request matrix is empty")
	}
	m.stage["merge"].ObserveSince(stageStart)
	mergeNs := time.Since(stageStart).Nanoseconds()

	// Steps 10-11: sign the license, encrypt it under the SU key, mask
	// it with eta (x) D~ for every indicator (eq. 17).
	stageStart = time.Now()
	if resp, err = r.lic.Issue(req.SUID, digest, suKey, ds); err != nil {
		return nil, err
	}
	m.stage["license"].ObserveSince(stageStart)
	r.mu.Lock()
	r.stats.MergeNs += mergeNs
	r.stats.LicenseNs += time.Since(stageStart).Nanoseconds()
	r.mu.Unlock()
	return resp, nil
}

// HandlePUUpdate broadcasts a PU update to every shard. The update's
// active channel is inside its ciphertexts, so routing to "the owning
// shard" is impossible without decrypting — and would leak the channel
// to the router if it weren't. Broadcasting keeps the privacy
// argument unchanged (each shard sees exactly what a single SDC would
// see) while the rebuild work still partitions: each shard re-encrypts
// and folds only its own window rows, 1/N of the full-window pass. On
// a shard error the PU re-sends; updates are idempotent, so shards
// that already applied it converge.
func (r *Router) HandlePUUpdate(u *PUUpdate) error {
	m := routerMetrics()
	r.mu.Lock()
	r.stats.Updates++
	r.mu.Unlock()
	start := time.Now()
	defer m.stage["update"].ObserveSince(start)
	n := len(r.shards)
	errs := make([]error, n)
	_ = parallel.For(n, n, func(i int) error {
		errs[i] = r.shards[i].HandlePUUpdate(u)
		return nil
	})
	for i, e := range errs {
		if e != nil {
			m.updateErrors.Inc()
			return fmt.Errorf("shard %d: %w", i, e)
		}
	}
	return nil
}

var _ SDCService = (*Router)(nil)

// routerMetricSet is the router's instrumentation set, registered once
// into the process-wide obs registry (get-or-create semantics, same
// convention as the SDC's metrics). Every SU-facing front is a router,
// so these series describe every topology.
//
// Stage labels follow the request front (DESIGN.md §15):
//
//	fanout  slice + per-shard ProcessShard calls, all at once: the
//	        slowest shard's time
//	merge   collection of the shards' grant indicators
//	license sign + encrypt + one eta-mask per indicator (eq. 17)
//	update  PU update broadcast
//	total   router ProcessRequest end to end
//
// Per-shard latencies land in pisa_router_shard_seconds{shard="i"} —
// one series per fan-out slot, bounded by the shard count.
type routerMetricSet struct {
	requests      *obs.Counter
	requestErrors *obs.Counter
	updateErrors  *obs.Counter
	stage         map[string]*obs.Histogram

	mu     sync.Mutex
	shards map[int]*obs.Histogram
}

var routerStages = []string{"fanout", "merge", "license", "update", "total"}

var (
	routerMetricsOnce sync.Once
	routerM           *routerMetricSet
)

// routerMetrics lazily builds the shared router metric set.
func routerMetrics() *routerMetricSet {
	routerMetricsOnce.Do(func() {
		r := obs.Default()
		m := &routerMetricSet{
			requests: r.Counter("pisa_router_requests_total",
				"SU transmission requests processed by the router", nil),
			requestErrors: r.Counter("pisa_router_request_errors_total",
				"SU transmission requests the router failed", nil),
			updateErrors: r.Counter("pisa_router_update_errors_total",
				"PU update broadcasts with at least one failed shard", nil),
			stage:  make(map[string]*obs.Histogram, len(routerStages)),
			shards: make(map[int]*obs.Histogram),
		}
		for _, s := range routerStages {
			m.stage[s] = r.Histogram("pisa_router_stage_seconds",
				"per-stage router request processing time (fan-out, merge, license)",
				obs.Labels{"stage": s}, nil)
		}
		routerM = m
	})
	return routerM
}

// shardCall returns the latency histogram for fan-out slot i,
// creating the labelled series on first use.
func (m *routerMetricSet) shardCall(i int) *obs.Histogram {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.shards[i]
	if !ok {
		h = obs.Default().Histogram("pisa_router_shard_seconds",
			"one shard's ProcessShard latency as seen by the router",
			obs.Labels{"shard": strconv.Itoa(i)}, nil)
		m.shards[i] = h
	}
	return h
}
