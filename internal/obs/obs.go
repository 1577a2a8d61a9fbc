// Package obs is the runtime observability layer for the PISA
// daemons: a dependency-free metrics registry (atomic counters,
// gauges, fixed-bucket latency histograms) with Prometheus
// text-format exposition.
//
// The paper's headline result is a latency budget (§VI: ~219 s of
// online SDC work per request, dominated by the homomorphic stages of
// eqs. 11-17), yet until this package existed the only operational
// signal was counters logged at shutdown. Every layer now reports
// live: per-stage SU-request timings (internal/pisa), blinding/nonce
// pool depth and refill outcomes, WAL append/fsync/snapshot timings
// (internal/store) and the RPC client/server counters
// (internal/node). The daemons expose it all over HTTP (-metrics)
// alongside net/http/pprof.
//
// Design constraints, in order: zero external dependencies, near-zero
// hot-path overhead (one atomic add per counter bump, one binary
// search plus two atomic adds per histogram observation — the
// homomorphic operations being measured cost milliseconds to
// minutes), and get-or-create registration so instrumented packages
// can share the process-wide Default registry without coordinating
// init order.
package obs

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Labels are constant key/value pairs attached to one series at
// registration time. The registry identifies a series by metric name
// plus the sorted rendering of its labels.
type Labels map[string]string

var nameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
var labelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)

// metric is anything the registry can expose.
type metric interface {
	// sample returns the exposition lines for one series; name and
	// labels are pre-rendered by the registry.
	sample(name, labels string) []string
}

type series struct {
	labels string // rendered `{k="v",...}` or ""
	m      metric
}

// family groups every series of one metric name under a shared HELP
// and TYPE.
type family struct {
	name, help, typ string
	series          map[string]*series
}

// Registry holds metric families and renders them in Prometheus text
// format. All methods are safe for concurrent use; registration is
// get-or-create, so two packages asking for the same (name, labels)
// share the underlying metric.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var std = NewRegistry()

// Default returns the process-wide registry the instrumented packages
// (pisa, paillier, store, node) report into and the daemons expose.
func Default() *Registry { return std }

// renderLabels deterministically renders a label set (sorted keys) or
// panics on an invalid name/value.
func renderLabels(l Labels) string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		if !labelRe.MatchString(k) {
			panic(fmt.Sprintf("obs: invalid label name %q", k))
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// register returns the existing metric for (name, labels) or installs
// the one built by mk. Registering the same name with a different
// type is a programming error and panics.
func (r *Registry) register(name, help, typ string, l Labels, mk func() metric, replace bool) metric {
	if !nameRe.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	key := renderLabels(l)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, series: make(map[string]*series)}
		r.families[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.typ, typ))
	}
	if s, ok := f.series[key]; ok && !replace {
		return s.m
	}
	m := mk()
	f.series[key] = &series{labels: key, m: m}
	return m
}

// Counter registers (or returns the existing) monotonically
// increasing counter.
func (r *Registry) Counter(name, help string, l Labels) *Counter {
	return r.register(name, help, "counter", l, func() metric { return &Counter{} }, false).(*Counter)
}

// Gauge registers (or returns the existing) settable gauge.
func (r *Registry) Gauge(name, help string, l Labels) *Gauge {
	return r.register(name, help, "gauge", l, func() metric { return &Gauge{} }, false).(*Gauge)
}

// Histogram registers (or returns the existing) fixed-bucket
// histogram. buckets are ascending upper bounds; the +Inf bucket is
// implicit. A nil slice takes DefBuckets.
func (r *Registry) Histogram(name, help string, l Labels, buckets []float64) *Histogram {
	return r.register(name, help, "histogram", l, func() metric { return newHistogram(buckets) }, false).(*Histogram)
}

// GaugeFunc registers a gauge whose value is read from fn at scrape
// time — the bridge for pre-existing counters like node's
// Stats()/ClientStats. Re-registering the same series replaces the
// callback (latest instance wins).
func (r *Registry) GaugeFunc(name, help string, l Labels, fn func() float64) {
	r.register(name, help, "gauge", l, func() metric { return gaugeFunc(fn) }, true)
}

// CounterFunc is GaugeFunc with counter typing, for bridged values
// that only ever grow.
func (r *Registry) CounterFunc(name, help string, l Labels, fn func() uint64) {
	r.register(name, help, "counter", l, func() metric { return counterFunc(fn) }, true)
}

// WritePrometheus renders every registered family in Prometheus text
// exposition format, families and series in deterministic (sorted)
// order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	type fam struct {
		name, help, typ string
		series          []*series
	}
	fams := make([]fam, 0, len(names))
	for _, n := range names {
		f := r.families[n]
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		ser := make([]*series, 0, len(keys))
		for _, k := range keys {
			ser = append(ser, f.series[k])
		}
		fams = append(fams, fam{f.name, f.help, f.typ, ser})
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.series {
			for _, line := range s.m.sample(f.name, s.labels) {
				b.WriteString(line)
				b.WriteByte('\n')
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Counter is a monotonically increasing uint64.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) sample(name, labels string) []string {
	return []string{fmt.Sprintf("%s%s %d", name, labels, c.v.Load())}
}

// Gauge is a settable int64 (pool depths, queue lengths, bytes).
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add shifts the value by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) sample(name, labels string) []string {
	return []string{fmt.Sprintf("%s%s %d", name, labels, g.v.Load())}
}

type gaugeFunc func() float64

func (f gaugeFunc) sample(name, labels string) []string {
	return []string{fmt.Sprintf("%s%s %s", name, labels, formatFloat(f()))}
}

type counterFunc func() uint64

func (f counterFunc) sample(name, labels string) []string {
	return []string{fmt.Sprintf("%s%s %d", name, labels, f())}
}

// DefBuckets covers the homomorphic pipeline's dynamic range: 100 µs
// (one small-key modular operation) through 600 s (a full paper-scale
// request, §VI's 219 s with headroom).
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300, 600,
}

// IOBuckets covers file-system latencies: 1 µs (page-cache write)
// through 1 s (a stalled fsync).
var IOBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1,
}

// Histogram counts observations into fixed buckets (cumulative at
// exposition, per-bucket internally so Observe touches one counter).
type Histogram struct {
	bounds []float64       // ascending upper bounds, +Inf implicit
	counts []atomic.Uint64 // len(bounds)+1, last is +Inf
	sum    atomic.Uint64   // float64 bits, CAS-accumulated
}

func newHistogram(buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram buckets not ascending at %d", i))
		}
	}
	bounds := make([]float64, len(buckets))
	copy(bounds, buckets)
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value (seconds, for the latency histograms).
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the elapsed time since t0 in seconds.
func (h *Histogram) ObserveSince(t0 time.Time) {
	h.Observe(time.Since(t0).Seconds())
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var total uint64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	return total
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	return math.Float64frombits(h.sum.Load())
}

// Snapshot captures the histogram's current bucket counts and sum.
// Subtracting two snapshots (Sub) isolates the observations of one
// measured region, which is how the load harness reports per-row
// quantiles from histograms that keep accumulating across rows.
// Buckets are read without a barrier: concurrent Observe calls may or
// may not be included, exactly like a Prometheus scrape.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds, // immutable after construction
		Counts: make([]uint64, len(h.counts)),
		Sum:    h.Sum(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a histogram's state.
type HistogramSnapshot struct {
	// Bounds are the ascending finite upper bounds; the +Inf bucket
	// is implicit.
	Bounds []float64
	// Counts are per-bucket (not cumulative) counts, len(Bounds)+1;
	// the last entry is the +Inf bucket.
	Counts []uint64
	// Sum is the sum of observed values.
	Sum float64
}

// Sub returns the delta snapshot s - prev: the observations recorded
// between the two snapshots. prev must come from the same histogram
// (same bounds) and must have been taken earlier.
func (s HistogramSnapshot) Sub(prev HistogramSnapshot) HistogramSnapshot {
	out := HistogramSnapshot{
		Bounds: s.Bounds,
		Counts: make([]uint64, len(s.Counts)),
		Sum:    s.Sum - prev.Sum,
	}
	for i := range s.Counts {
		if i < len(prev.Counts) && prev.Counts[i] <= s.Counts[i] {
			out.Counts[i] = s.Counts[i] - prev.Counts[i]
		} else if i >= len(prev.Counts) {
			out.Counts[i] = s.Counts[i]
		}
	}
	return out
}

// Count returns the total number of observations in the snapshot.
func (s HistogramSnapshot) Count() uint64 {
	var total uint64
	for _, c := range s.Counts {
		total += c
	}
	return total
}

// Quantile estimates the q-quantile (0 <= q <= 1) of the snapshot's
// observations by linear interpolation inside the owning bucket — the
// same estimator Prometheus's histogram_quantile uses. The first
// bucket interpolates from zero (the latency histograms observe
// non-negative values only). Rank mass that spills into the +Inf
// bucket reports the largest finite bound: the histogram cannot say
// more than "at least this". Returns NaN for an empty snapshot or a
// q outside [0, 1].
func (s HistogramSnapshot) Quantile(q float64) float64 {
	total := s.Count()
	if total == 0 || q < 0 || q > 1 || len(s.Bounds) == 0 {
		return math.NaN()
	}
	rank := q * float64(total)
	var cum uint64
	for i, bound := range s.Bounds {
		prev := float64(cum)
		cum += s.Counts[i]
		if float64(cum) >= rank {
			lower := 0.0
			if i > 0 {
				lower = s.Bounds[i-1]
			}
			n := float64(s.Counts[i])
			if n == 0 {
				return bound
			}
			return lower + (bound-lower)*(rank-prev)/n
		}
	}
	// The rank falls in the +Inf bucket.
	return s.Bounds[len(s.Bounds)-1]
}

func (h *Histogram) sample(name, labels string) []string {
	// Per-bucket counts are read without a snapshot barrier; the
	// cumulative sums are still monotone within one scrape, which is
	// all Prometheus semantics require.
	lines := make([]string, 0, len(h.counts)+2)
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		lines = append(lines, fmt.Sprintf("%s_bucket%s %d", name, mergeLE(labels, formatFloat(bound)), cum))
	}
	cum += h.counts[len(h.bounds)].Load()
	lines = append(lines,
		fmt.Sprintf("%s_bucket%s %d", name, mergeLE(labels, "+Inf"), cum),
		fmt.Sprintf("%s_sum%s %s", name, labels, formatFloat(h.Sum())),
		fmt.Sprintf("%s_count%s %d", name, labels, cum))
	return lines
}

// mergeLE splices the le label into a rendered label block.
func mergeLE(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
