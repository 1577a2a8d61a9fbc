// Package shard implements channel-sharding of the SDC (DESIGN.md
// §15): the C×B encrypted budget matrix is partitioned into N
// contiguous channel windows, each owned by an independent SDC
// instance (pisa.WithChannelWindow) with its own WAL, decision cache
// and STP link, and a thin Router fans each SU request out to every
// shard, then masks the single license with every shard's grant
// indicator (eq. 17).
//
// Channel-partitioning is privacy-neutral: every shard still sees
// every block of the request and every PU update ciphertext, exactly
// the view the monolithic SDC has — unlike block-partitioning, which
// would hand each shard a location-correlated subset. And because
// the request is granted exactly when every (channel, block) test
// passes, each shard's indicator — zero iff its own tests passed —
// enters eq. 17's masked-license exponent as one more term under the
// SU's key; no shard ever holds a decryptable decision, and only the
// router signs licenses.
package shard

import (
	"crypto/rand"
	"crypto/rsa"
	"fmt"
	"sync"
	"time"

	"pisa/internal/geo"
	"pisa/internal/paillier"
	"pisa/internal/parallel"
	"pisa/internal/pisa"
	"pisa/internal/watch"
)

// Service is the per-shard surface the Router fans out to. A local
// *pisa.SDC satisfies it directly; a remote shard is reached through
// node.SDCClient (which adds pooling, retries and replica failover).
type Service interface {
	ProcessShard(*pisa.TransmissionRequest) (*pisa.ShardAnswer, error)
	HandlePUUpdate(*pisa.PUUpdate) error
}

// Windows partitions C channels into n contiguous near-equal windows
// [lo, hi); the first channels%n windows are one channel larger. Shard
// i of an N-shard deployment owns Windows(C, N)[i] — the router and
// the shard constructors must agree on this assignment.
func Windows(channels, n int) ([][2]int, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: need at least 1 shard, got %d", n)
	}
	if n > channels {
		return nil, fmt.Errorf("shard: %d shards exceed %d channels", n, channels)
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
// It satisfies pisa.SDCService, so node.SDCServer and the benches drive
// it exactly like a monolithic SDC.
type Router struct {
	params  pisa.Params
	suKeys  *pisa.SUKeyCache // the license tail encrypts under these: armed
	public  *watch.System
	lic     *pisa.Licenser
	shards  []Service
	windows [][2]int

	mu    sync.Mutex
	stats Stats
}

// Stats are the router's cumulative counters, one struct per Router
// (the obs registry aggregates process-wide). Stage fields are summed
// nanoseconds. FanoutNs and ShardNs grow on every request that reached
// the fan-out, failed ones included; MergeNs and LicenseNs only on the
// Requests - Errors that completed — LogAttrs divides each by its own
// count. ShardNs[i] sums shard i's ProcessShard latency as seen by the
// router (queueing, transport and failover included for remote shards).
type Stats struct {
	Requests  uint64
	Errors    uint64
	Updates   uint64
	FanoutNs  int64
	MergeNs   int64
	LicenseNs int64
	ShardNs   []int64
}

// LogAttrs is the shutdown digest of a router daemon as slog key/value
// pairs: request/update volume, the mean per-stage split (fan-out,
// merge, license) and each shard's mean service time.
func (st Stats) LogAttrs() []any {
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
func NewRouter(issuer string, params pisa.Params, transmitters []watch.TVTransmitter, stp pisa.STPService, shards []Service) (*Router, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if stp == nil {
		return nil, fmt.Errorf("shard: router requires an STP service")
	}
	for i, sh := range shards {
		if sh == nil {
			return nil, fmt.Errorf("shard: shard %d is nil", i)
		}
	}
	windows, err := Windows(params.Watch.Channels, len(shards))
	if err != nil {
		return nil, err
	}
	public, err := watch.NewSystem(params.Watch, transmitters)
	if err != nil {
		return nil, fmt.Errorf("shard: public precomputation: %w", err)
	}
	lic, err := pisa.NewLicenser(issuer, params, rand.Reader, nil, 0)
	if err != nil {
		return nil, err
	}
	return &Router{
		params:  params,
		suKeys:  pisa.NewSUKeyCache(stp, params, rand.Reader, true),
		public:  public,
		lic:     lic,
		shards:  shards,
		windows: windows,
		stats:   Stats{ShardNs: make([]int64, len(shards))},
	}, nil
}

// Shards reports the fan-out width.
func (r *Router) Shards() int { return len(r.shards) }

// Window reports the channel window [lo, hi) assigned to shard i.
func (r *Router) Window(i int) (lo, hi int) { return r.windows[i][0], r.windows[i][1] }

// VerifyKey returns the public key SUs use to check license
// signatures — the router's own, since only the router signs.
func (r *Router) VerifyKey() *rsa.PublicKey { return r.lic.VerifyKey() }

// Planner returns the public-data planner for request building.
func (r *Router) Planner() *watch.Planner { return r.public.Planner() }

// EColumn serves the plaintext E column for a block from the router's
// own public-data precomputation — no shard round trip; E is public
// and immutable.
func (r *Router) EColumn(b geo.BlockID) ([]int64, error) {
	if !r.params.Watch.Grid.Valid(b) {
		return nil, fmt.Errorf("shard: block %d invalid", b)
	}
	e := r.public.EMatrix()
	col := make([]int64, r.params.Watch.Channels)
	for c := range col {
		v, err := e.At(c, int(b))
		if err != nil {
			return nil, err
		}
		col[c] = v
	}
	return col, nil
}

// Stats snapshots the router's counters.
func (r *Router) Stats() Stats {
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
func (r *Router) sliceFor(req *pisa.TransmissionRequest, i int) (*pisa.TransmissionRequest, error) {
	w := r.windows[i]
	sub := *req
	fp, err := req.FP.ChannelSlice(w[0], w[1])
	if err != nil {
		return nil, err
	}
	sub.FP = fp
	return &sub, nil
}

// ProcessRequest executes one SU request across the shards: slice the
// request along the channel windows, fan the slices out (ProcessShard
// on every shard), collect the shards' grant indicators, and issue the
// single license masked with every one of them (eq. 17). Decision
// parity with a monolithic SDC is exact: the windows partition the
// channel rows, so the indicators range over precisely the same
// (channel, block) tests.
func (r *Router) ProcessRequest(req *pisa.TransmissionRequest) (resp *pisa.Response, err error) {
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
		return nil, fmt.Errorf("shard: nil request")
	}
	if req.SUID == "" {
		return nil, fmt.Errorf("shard: request missing SU id")
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
	answers := make([]*pisa.ShardAnswer, n)
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
			answers[i] = &pisa.ShardAnswer{}
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
	// up — digits of different shards could cancel (pisa.ShardAnswer) —
	// but masked one by one in the license tail.
	stageStart = time.Now()
	var ds []*paillier.Ciphertext
	for i, ans := range answers {
		if ans == nil {
			return nil, fmt.Errorf("shard %d: nil answer", i)
		}
		ds = append(ds, ans.D...)
	}
	if len(ds) == 0 {
		return nil, fmt.Errorf("shard: request matrix is empty")
	}
	m.stage["merge"].ObserveSince(stageStart)
	mergeNs := time.Since(stageStart).Nanoseconds()

	// License tail — the monolithic SDC's, on the router's licenser.
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
// argument unchanged (each shard sees exactly what the monolithic SDC
// saw) while the rebuild work still partitions: each shard re-encrypts
// and folds only its own window rows, 1/N of the monolithic pass. On
// a shard error the PU re-sends; updates are idempotent, so shards
// that already applied it converge.
func (r *Router) HandlePUUpdate(u *pisa.PUUpdate) error {
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

var _ pisa.SDCService = (*Router)(nil)
