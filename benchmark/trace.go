package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pisa/internal/node"
	"pisa/internal/pisa"
	"pisa/internal/pisa/shard"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Request; Parent is the span whose call caused this one (0 for a
// root). Times are nanoseconds since the tracer was created.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request string `json:"request"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Ct      int    `json:"ct"`
}

func (s span) ms() float64 { return float64(s.EndNs-s.StartNs) / 1e6 }

// Layers. A span's self time is charged to its layer; the harness
// layer is the benchmark's own glue and counts as unattributed.
const (
	layerHarness = "harness"
	layerSU      = "su"
	layerPU      = "pu"
	layerSDC     = "sdc"
	layerSTP     = "stp"
	layerRouter  = "shard"
	layerWire    = "wire"
	layerStore   = "store"
)

// tracer records spans from decorators the benchmark puts around the
// repo's own interfaces; nothing inside the program is instrumented. A
// nil tracer (untraced runs) records nothing and its decorators are
// never installed. While off, an installed decorator costs one atomic
// load per call.
//
// A decorator deep in the stack knows only who the call is for (the
// SUID or PUID on the message). Each actor has at most one operation in
// flight, so the actor names the request, and a span finds its parent
// as that request's open span of a fixed name.
type tracer struct {
	on   atomic.Bool
	base time.Time

	mu      sync.Mutex
	seq     int
	spans   []span
	current map[string]string // actor -> request in flight
	open    map[string]int    // request + "\x00" + span name -> span ID
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), current: map[string]string{}, open: map[string]int{}}
}

// root opens the top span of a new operation by actor and makes it the
// actor's request in flight. It returns 0 when tracing is off.
func (t *tracer) root(actor, name string) int {
	if t == nil || !t.on.Load() {
		return 0
	}
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	req := fmt.Sprintf("%s#%d", actor, t.seq)
	t.current[actor] = req
	id := t.push(span{Request: req, Layer: layerHarness, Name: name, StartNs: now})
	t.open[req+"\x00"] = id
	return id
}

// begin opens a span under the actor's request in flight, as a child of
// that request's open span named parent ("" is the root). It returns 0
// (and records nothing) when tracing is off or the actor has no traced
// request.
func (t *tracer) begin(actor, layer, name, parent string, ct int) int {
	if t == nil || !t.on.Load() {
		return 0
	}
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	req, ok := t.current[actor]
	if !ok {
		return 0
	}
	return t.push(span{Parent: t.open[req+"\x00"+parent], Request: req, Layer: layer, Name: name, StartNs: now, Ct: ct})
}

func (t *tracer) push(s span) int {
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	t.open[s.Request+"\x00"+s.Name] = s.ID
	return s.ID
}

// end closes span id; a positive ct replaces the count given at begin
// (for work whose size is only known afterwards).
func (t *tracer) end(id, ct int) {
	if id == 0 {
		return
	}
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.EndNs = now
	if ct > 0 {
		s.Ct = ct
	}
	delete(t.open, s.Request+"\x00"+s.Name)
	if s.Parent == 0 && s.Layer == layerHarness {
		delete(t.open, s.Request+"\x00")
		actor := s.Request[:strings.LastIndexByte(s.Request, '#')]
		if t.current[actor] == s.Request {
			delete(t.current, actor)
		}
	}
}

// finished returns the closed spans recorded so far.
func (t *tracer) finished() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.EndNs > 0 {
			out = append(out, s)
		}
	}
	return out
}

// writeSpans saves spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- decorators -------------------------------------------------------

// tracedSTP times the SDC's sign-test calls. Embedding the interface
// passes SUKey and GroupKey through untouched and hides the optional
// batch entry point, which the shipped defaults (STPBatchWindow 0)
// never use.
type tracedSTP struct {
	pisa.STPService
	tr           *tracer
	name, parent string
}

func (t *tracer) stp(inner pisa.STPService, name, parent string) pisa.STPService {
	if t == nil {
		return inner
	}
	return &tracedSTP{STPService: inner, tr: t, name: name, parent: parent}
}

func (s *tracedSTP) ConvertSigns(req *pisa.SignRequest) (*pisa.SignResponse, error) {
	id := s.tr.begin(req.SUID, layerSTP, s.name, s.parent, len(req.V))
	defer s.tr.end(id, 0)
	return s.STPService.ConvertSigns(req)
}

// tracedSDC times whatever sits behind an SDC server or an in-process
// entry point: a monolithic SDC, a router, or a windowed shard (which
// also answers ProcessShard).
type tracedSDC struct {
	node.SDCBackend
	shard interface {
		ProcessShard(*pisa.TransmissionRequest) (*pisa.ShardAnswer, error)
	}
	tr            *tracer
	layer, prefix string
	parent        string
}

func (t *tracer) backend(inner node.SDCBackend, layer, prefix, parent string) node.SDCBackend {
	if t == nil {
		return inner
	}
	d := &tracedSDC{SDCBackend: inner, tr: t, layer: layer, prefix: prefix, parent: parent}
	if s, ok := inner.(*pisa.SDC); ok {
		d.shard = s
	}
	return d
}

func (d *tracedSDC) ProcessRequest(req *pisa.TransmissionRequest) (*pisa.Response, error) {
	id := d.tr.begin(req.SUID, d.layer, d.prefix+".process", d.parent, req.Ciphertexts())
	defer d.tr.end(id, 0)
	return d.SDCBackend.ProcessRequest(req)
}

func (d *tracedSDC) ProcessShard(req *pisa.TransmissionRequest) (*pisa.ShardAnswer, error) {
	if d.shard == nil {
		return nil, fmt.Errorf("benchmark: %s does not serve shard queries", d.prefix)
	}
	id := d.tr.begin(req.SUID, d.layer, d.prefix+".process", d.parent, req.Ciphertexts())
	defer d.tr.end(id, 0)
	return d.shard.ProcessShard(req)
}

func (d *tracedSDC) HandlePUUpdate(u *pisa.PUUpdate) error {
	id := d.tr.begin(string(u.PUID), d.layer, d.prefix+".update", d.parent, len(u.Cts))
	defer d.tr.end(id, 0)
	return d.SDCBackend.HandlePUUpdate(u)
}

// tracedShard times the router's view of one shard: the call as the
// router waits for it, transport included when the shard is remote.
type tracedShard struct {
	inner shard.Service
	tr    *tracer
	name  string
}

func (t *tracer) shardService(inner shard.Service, index int) shard.Service {
	if t == nil {
		return inner
	}
	return &tracedShard{inner: inner, tr: t, name: fmt.Sprintf("shard%d.call", index)}
}

func (s *tracedShard) ProcessShard(req *pisa.TransmissionRequest) (*pisa.ShardAnswer, error) {
	id := s.tr.begin(req.SUID, layerWire, s.name, "router.process", req.Ciphertexts())
	defer s.tr.end(id, 0)
	return s.inner.ProcessShard(req)
}

func (s *tracedShard) HandlePUUpdate(u *pisa.PUUpdate) error {
	id := s.tr.begin(string(u.PUID), layerWire, s.name, "router.update", len(u.Cts))
	defer s.tr.end(id, 0)
	return s.inner.HandlePUUpdate(u)
}

// journal times the write-ahead hook an SDC calls before it
// acknowledges a PU update; the span's ct is the record's byte size.
func (t *tracer) journal(fn func(*pisa.PUUpdate) (int, error), parent string) func(*pisa.PUUpdate) error {
	return func(u *pisa.PUUpdate) error {
		id := t.begin(string(u.PUID), layerStore, "store.append", parent, 0)
		n, err := fn(u)
		t.end(id, n)
		return err
	}
}

// --- byte-counting listener --------------------------------------------

// exchange is one request/reply pair as a server connection saw it:
// from the first request byte read to the last reply byte written.
type exchange struct {
	startNs, endNs int64
	in, out        int64
}

// meter counts the bytes crossing a server's listener and, while the
// tracer is on, times each exchange. It is how the benchmark sees a
// server whose constructor takes a concrete role type (node.NewSTPServer)
// and so cannot be handed a decorator.
type meter struct {
	tr      *tracer
	in, out atomic.Int64

	mu        sync.Mutex
	exchanges []exchange
}

type meteredListener struct {
	net.Listener
	m *meter
}

func (l *meteredListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &meteredConn{Conn: c, m: l.m}, nil
}

// meteredConn is driven by one server goroutine that alternates reads
// and writes, so its own fields need no lock.
type meteredConn struct {
	net.Conn
	m     *meter
	cur   exchange
	wrote bool
}

func (c *meteredConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		now := time.Since(c.m.tr.base).Nanoseconds()
		if c.wrote {
			c.flush()
		}
		if c.cur.in == 0 {
			c.cur.startNs = now
		}
		c.cur.in += int64(n)
		c.m.in.Add(int64(n))
	}
	return n, err
}

func (c *meteredConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 {
		c.cur.endNs = time.Since(c.m.tr.base).Nanoseconds()
		c.cur.out += int64(n)
		c.wrote = true
		c.m.out.Add(int64(n))
	}
	return n, err
}

func (c *meteredConn) Close() error {
	if c.wrote {
		c.flush()
	}
	return c.Conn.Close()
}

func (c *meteredConn) flush() {
	if c.m.tr.on.Load() {
		c.m.mu.Lock()
		c.m.exchanges = append(c.m.exchanges, c.cur)
		c.m.mu.Unlock()
	}
	c.cur, c.wrote = exchange{}, false
}

// --- analysis -----------------------------------------------------------

// spanTree indexes one pass's spans for self-time and blocking-path
// queries.
type spanTree struct {
	spans []span
	kids  map[int][]int // span ID -> indices of its children
	byID  map[int]int
}

func newSpanTree(spans []span) *spanTree {
	t := &spanTree{spans: spans, kids: map[int][]int{}, byID: map[int]int{}}
	for i, s := range spans {
		t.byID[s.ID] = i
		if s.Parent != 0 {
			t.kids[s.Parent] = append(t.kids[s.Parent], i)
		}
	}
	return t
}

// selfNs is the span's duration minus the part of it its children
// cover (their intervals clipped to the span and merged).
func (t *spanTree) selfNs(i int) int64 {
	s := t.spans[i]
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range t.kids[s.ID] {
		a, b := max(t.spans[k].StartNs, s.StartNs), min(t.spans[k].EndNs, s.EndNs)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, end := int64(0), s.StartNs
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		covered += v.b - max(v.a, end)
		end = v.b
	}
	return s.EndNs - s.StartNs - covered
}

// blockingNs sums self times along the path the result waited for:
// the span itself (unless it is harness glue) and, walking back from
// its end, each child that finished before the previously chosen one
// began. Of children that ran in parallel only the last to finish is
// on the path.
func (t *spanTree) blockingNs(i int) int64 {
	s := t.spans[i]
	var sum int64
	if s.Layer != layerHarness {
		sum = t.selfNs(i)
	}
	kids := append([]int(nil), t.kids[s.ID]...)
	sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].EndNs > t.spans[kids[b]].EndNs })
	cursor := s.EndNs + 1
	for _, k := range kids {
		if t.spans[k].EndNs <= cursor {
			sum += t.blockingNs(k)
			cursor = t.spans[k].StartNs
		}
	}
	return sum
}
