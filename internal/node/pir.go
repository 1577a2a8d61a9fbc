package node

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"pisa/internal/geo"
	"pisa/internal/obs"
	"pisa/internal/pir"
	"pisa/internal/wire"
)

// PIRServer exposes one pir.Database replica over TCP: geometry
// fetches and selection-vector queries.
type PIRServer struct {
	*server

	db *pir.Database
}

// NewPIRServer wraps a replica database.
func NewPIRServer(db *pir.Database, log *slog.Logger, timeout time.Duration) *PIRServer {
	s := &PIRServer{db: db}
	s.server = newServer("pirdb", log, timeout, s.dispatch)
	return s
}

func (s *PIRServer) dispatch(env *wire.Envelope) (*wire.Envelope, error) {
	switch env.Kind {
	case wire.KindPIRMetaRequest:
		m := s.db.Meta()
		return &wire.Envelope{Kind: wire.KindPIRMeta, PIRMeta: &m}, nil
	case wire.KindPIRQuery:
		if env.PIRQuery == nil {
			pir.ObserveQueryError()
			return nil, fmt.Errorf("pirdb: query missing payload")
		}
		start := time.Now()
		ans, err := s.db.Answer(env.PIRQuery)
		if err != nil {
			pir.ObserveQueryError()
			return nil, err
		}
		pir.ObserveQuery(time.Since(start))
		return &wire.Envelope{Kind: wire.KindPIRAnswer, PIRAnswer: ans}, nil
	default:
		return nil, fmt.Errorf("pirdb: unexpected message kind %s", env.Kind)
	}
}

// pirFaultCooldown is how long a replica whose last call ended in a
// transport fault is ordered behind the spares. A var so in-package
// tests can shorten it.
var pirFaultCooldown = 3 * time.Second

// pirReplica pairs one replica address with its own resilient client:
// separate pools and retry budgets per replica, because the replicas
// are NOT equivalent endpoints of one service — each share of a query
// must reach a DIFFERENT replica.
type pirReplica struct {
	addr string
	c    *client
	// faultedAt is the UnixNano time at which the replica's last call
	// ended in a transport fault, or 0 when it ended otherwise.
	faultedAt atomic.Int64
}

// healthy reports whether the replica belongs among the primaries of
// a fan-out started at now: its last call did not end in a transport
// fault within pirFaultCooldown. Faulted replicas become last-resort
// spares.
func (r *pirReplica) healthy(now time.Time) bool {
	at := r.faultedAt.Load()
	return at == 0 || now.Sub(time.Unix(0, at)) >= pirFaultCooldown
}

// record notes how the replica's last call ended.
func (r *pirReplica) record(err error) {
	var at int64
	if err != nil && Retryable(err) {
		at = time.Now().UnixNano()
	}
	r.faultedAt.Store(at)
}

// PIRClient drives the k-way PIR fan-out: it splits each fetch into k
// selection-vector shares, sends every share to a distinct replica
// (spares take over shares whose primary replica fails — a spare has
// seen no other share of this query, so the non-collusion argument is
// unchanged), checks the k answers agree on the database version, and
// XORs them back into the queried row.
type PIRClient struct {
	replicas []*pirReplica
	k        int

	mu   sync.Mutex
	meta pir.Meta
}

// pirClientMetrics carries the client-side per-stage histograms the
// tentpole asks for: vector build, per-replica RTT, XOR reconstruct.
type pirClientMetrics struct {
	stage    map[string]*obs.Histogram
	fetches  *obs.Counter
	errors   *obs.Counter
	reassign *obs.Counter
	skews    *obs.Counter
}

var pirStages = []string{"vector_build", "replica_rtt", "reconstruct"}

var (
	pirMetricsOnce sync.Once
	pirM           *pirClientMetrics
)

func pirMetrics() *pirClientMetrics {
	pirMetricsOnce.Do(func() {
		r := obs.Default()
		m := &pirClientMetrics{
			stage: make(map[string]*obs.Histogram, len(pirStages)),
			fetches: r.Counter("pisa_pir_client_fetches_total",
				"k-way PIR fetches issued", nil),
			errors: r.Counter("pisa_pir_client_fetch_errors_total",
				"PIR fetches that failed (degraded mode or transport)", nil),
			reassign: r.Counter("pisa_pir_client_share_reassignments_total",
				"query shares moved to a spare replica after a primary failed", nil),
			skews: r.Counter("pisa_pir_client_version_skew_retries_total",
				"full-query retries because replica answers disagreed on the database version", nil),
		}
		for _, s := range pirStages {
			m.stage[s] = r.Histogram("pisa_pir_client_stage_seconds",
				"per-stage PIR fetch latency (vector_build / replica_rtt / reconstruct)",
				obs.Labels{"stage": s}, nil)
		}
		pirM = m
	})
	return pirM
}

// DialPIRWith connects to the replica set. k is the number of shares
// per query — the non-collusion threshold; replicas beyond k are spares.
// The constructor eagerly fetches the database geometry and requires
// every replica that answers to agree on it.
func DialPIRWith(opts Options, k int, addrs ...string) (*PIRClient, error) {
	if len(addrs) == 0 {
		return nil, errors.New("node: no PIR replica address configured")
	}
	if k > len(addrs) {
		return nil, fmt.Errorf("node: k=%d shares need at least %d replicas, have %d", k, k, len(addrs))
	}
	if k < 2 {
		// A single share IS the unit vector: the one replica that sees
		// it learns the queried block. Refuse rather than silently drop
		// the privacy property.
		return nil, fmt.Errorf("node: k=%d: one share is a plaintext lookup; ask at least 2 replicas per query", k)
	}
	c := &PIRClient{k: k}
	for i, a := range addrs {
		r := &pirReplica{addr: a, c: newClient(a, opts)}
		r.c.bridgeObs(fmt.Sprintf("pir-replica-%d", i))
		c.replicas = append(c.replicas, r)
	}
	var meta *pir.Meta
	var lastErr error
	for _, r := range c.replicas {
		resp, err := r.c.call(&wire.Envelope{Kind: wire.KindPIRMetaRequest}, wire.KindPIRMeta)
		r.record(err)
		if err != nil {
			lastErr = err
			continue
		}
		if resp.PIRMeta == nil {
			c.Close()
			return nil, fmt.Errorf("node: PIR replica %s returned no metadata", r.addr)
		}
		if meta == nil {
			m := *resp.PIRMeta
			meta = &m
			continue
		}
		if !sameGeometry(*meta, *resp.PIRMeta) {
			c.Close()
			return nil, fmt.Errorf("node: PIR replica %s disagrees on database geometry (%+v vs %+v)",
				r.addr, *resp.PIRMeta, *meta)
		}
	}
	if meta == nil {
		c.Close()
		return nil, fmt.Errorf("node: no PIR replica answered a metadata fetch: %w", lastErr)
	}
	c.meta = *meta
	return c, nil
}

// sameGeometry compares everything but the (churn-sensitive) version.
func sameGeometry(a, b pir.Meta) bool {
	a.Version, b.Version = 0, 0
	return a == b
}

// Meta returns the database geometry fetched at dial time.
func (c *PIRClient) Meta() pir.Meta {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.meta
}

// Close tears down every replica client.
func (c *PIRClient) Close() error {
	var err error
	for _, r := range c.replicas {
		if cerr := r.c.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// errVersionSkew marks a fetch whose replica answers disagreed on the
// database version (an update landed on some replicas mid-query); the
// whole fetch retries with fresh vectors.
var errVersionSkew = errors.New("node: replica answers span different database versions")

// maxSkewRetries bounds full-query retries under continuous churn.
const maxSkewRetries = 3

// Fetch retrieves block b's bitmap row without revealing b to any
// replica: k fresh random shares, k distinct replicas, XOR
// reconstruction. It returns the row and the database version the
// replicas agreed on.
func (c *PIRClient) Fetch(ctx context.Context, b geo.BlockID) ([]byte, uint64, error) {
	m := pirMetrics()
	m.fetches.Inc()
	var lastErr error
	for attempt := 0; attempt < maxSkewRetries; attempt++ {
		row, version, err := c.fetchOnce(ctx, b)
		if err == nil {
			return row, version, nil
		}
		if !errors.Is(err, errVersionSkew) {
			m.errors.Inc()
			return nil, 0, err
		}
		m.skews.Inc()
		lastErr = err
	}
	m.errors.Inc()
	return nil, 0, fmt.Errorf("node: PIR fetch unstable after %d attempts under churn: %w", maxSkewRetries, lastErr)
}

// fetchOnce runs one complete fan-out round.
func (c *PIRClient) fetchOnce(ctx context.Context, b geo.BlockID) ([]byte, uint64, error) {
	m := pirMetrics()
	meta := c.Meta()
	start := time.Now()
	vecs, err := pir.BuildVectors(nil, meta.Blocks, c.k, b)
	if err != nil {
		return nil, 0, err
	}
	m.stage["vector_build"].Observe(time.Since(start).Seconds())

	// Order replicas healthy-first; the first k are the primaries, the
	// rest are spares. Every replica serves at most one share per
	// query — consuming assignments from a shared channel enforces it.
	// Health is evaluated exactly once per replica: a replica whose
	// health flipped between two reads would otherwise be listed twice,
	// letting two shares of one query reach the same replica — exactly
	// what the k-distinct-replicas fan-out exists to prevent.
	order := make([]*pirReplica, 0, len(c.replicas))
	now := time.Now()
	isHealthy := make([]bool, len(c.replicas))
	for i, r := range c.replicas {
		isHealthy[i] = r.healthy(now)
	}
	for i, r := range c.replicas {
		if isHealthy[i] {
			order = append(order, r)
		}
	}
	for i, r := range c.replicas {
		if !isHealthy[i] {
			order = append(order, r)
		}
	}
	avail := make(chan *pirReplica, len(order))
	for _, r := range order {
		avail <- r
	}

	rows := make([][]byte, c.k)
	versions := make([]uint64, c.k)
	errs := make([]error, c.k)
	var wg sync.WaitGroup
	for i, v := range vecs {
		wg.Add(1)
		go func(i int, sel []byte) {
			defer wg.Done()
			req := &wire.Envelope{Kind: wire.KindPIRQuery, PIRQuery: &pir.Query{Sel: sel}}
			var shareErr error
			first := true
			for {
				var rep *pirReplica
				select {
				case rep = <-avail:
				default:
					errs[i] = fmt.Errorf("share %d: replicas exhausted (last: %w)", i, shareErr)
					return
				}
				if !first {
					m.reassign.Inc()
				}
				first = false
				t0 := time.Now()
				resp, err := rep.c.callCtx(ctx, req, wire.KindPIRAnswer)
				m.stage["replica_rtt"].Observe(time.Since(t0).Seconds())
				rep.record(err)
				if err != nil {
					shareErr = fmt.Errorf("replica %s: %w", rep.addr, err)
					if ctx.Err() != nil {
						errs[i] = shareErr
						return
					}
					continue
				}
				if resp.PIRAnswer == nil || len(resp.PIRAnswer.Row) != meta.RowBytes {
					shareErr = fmt.Errorf("replica %s: malformed answer row", rep.addr)
					continue
				}
				rows[i] = resp.PIRAnswer.Row
				versions[i] = resp.PIRAnswer.Version
				return
			}
		}(i, v)
	}
	wg.Wait()

	answered := 0
	var firstErr error
	for i := range rows {
		if rows[i] != nil {
			answered++
		} else if firstErr == nil {
			firstErr = errs[i]
		}
	}
	if answered < c.k {
		// Degraded mode: fewer distinct live replicas than shares. This
		// is a clean, immediate error — privacy forbids doubling shares
		// onto one replica, so the query cannot be answered at all.
		return nil, 0, fmt.Errorf("node: PIR degraded: query needs %d replica shares but only %d answered: %w",
			c.k, answered, firstErr)
	}
	for i := 1; i < len(versions); i++ {
		if versions[i] != versions[0] {
			return nil, 0, fmt.Errorf("%w (saw %d and %d)", errVersionSkew, versions[0], versions[i])
		}
	}
	start = time.Now()
	row, err := pir.Reconstruct(rows)
	if err != nil {
		return nil, 0, err
	}
	m.stage["reconstruct"].Observe(time.Since(start).Seconds())
	return row, versions[0], nil
}
