package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pisa/internal/geo"
	"pisa/internal/pisa"
	"pisa/internal/watch"
)

// oracle is the plaintext WATCH system the benchmark keeps in step with
// the deployment. Every PU update is applied here first (begin), sent,
// and then marked acknowledged (end); epoch e is the state after e
// updates. A request that started when `done` updates were acknowledged
// and ended when `started` had been sent may legitimately have been
// decided at any epoch in between, and at no other.
type oracle struct {
	mu       sync.Mutex
	sys      *watch.System
	shapes   []watch.Request // repeated shapes, judged at every epoch
	verdicts [][]bool        // verdicts[epoch][shape]
	started  int
	done     int
}

func newOracle(wp watch.Params, shapes []watch.Request) (*oracle, error) {
	sys, err := watch.NewSystem(wp, nil)
	if err != nil {
		return nil, err
	}
	o := &oracle{sys: sys, shapes: shapes}
	return o, o.judge()
}

// judge appends the current epoch's verdict row; callers hold mu.
func (o *oracle) judge() error {
	row := make([]bool, len(o.shapes))
	for i, s := range o.shapes {
		d, err := o.sys.Evaluate(s)
		if err != nil {
			return err
		}
		row[i] = d.Granted
	}
	o.verdicts = append(o.verdicts, row)
	return nil
}

func (o *oracle) begin(id watch.PUID, reg watch.Registration) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if err := o.sys.UpdatePU(id, reg); err != nil {
		return err
	}
	o.started++
	return o.judge()
}

func (o *oracle) end() {
	o.mu.Lock()
	o.done++
	o.mu.Unlock()
}

func (o *oracle) epoch() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.done
}

// agrees reports whether granted is a decision the oracle allows for a
// request that began at epoch since. shapeIdx < 0 is a never-repeated
// shape, judged against the current state (such workloads have no
// updates in flight).
func (o *oracle) agrees(shapeIdx int, fresh watch.Request, since int, granted bool) (bool, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if shapeIdx < 0 {
		d, err := o.sys.Evaluate(fresh)
		return err == nil && d.Granted == granted, err
	}
	for e := since; e <= o.started; e++ {
		if o.verdicts[e][shapeIdx] == granted {
			return true, nil
		}
	}
	return false, nil
}

// member is one fleet SU with the base requests it refreshes. mu keeps
// one request in flight per SU, which both the protocol (one key, one
// license at a time) and the tracer's parent lookup rely on.
type member struct {
	mu   sync.Mutex
	su   *pisa.SU
	base []*pisa.TransmissionRequest
}

// runner is one set-up deployment with its fleet, PUs and oracle.
type runner struct {
	prof   profile
	spec   workloadSpec
	plan   *plan
	tr     *tracer
	dep    *deployment
	oracle *oracle

	members []*member
	churn   []*pisa.PU
	churnOn []bool
	signal  int64
}

var walSeq atomic.Int64

// setup builds the deployment, brings the fleet up (keys, registration,
// base requests, nonce pools) and installs the static PU population.
// Its duration is what setup_s reports.
func setup(prof profile, spec workloadSpec, pl *plan, tr *tracer) (*runner, error) {
	walDir := filepath.Join(prof.scratch, fmt.Sprintf("wal-%d-%d", os.Getpid(), walSeq.Add(1)))
	dep, err := build(spec, prof.params, tr, walDir)
	if err != nil {
		return nil, err
	}
	r := &runner{prof: prof, spec: spec, plan: pl, tr: tr, dep: dep}
	wp := prof.params.Watch
	r.signal = wp.Quantize(wp.SMinPUmW * 100)
	if err := r.bringUp(); err != nil {
		r.close()
		return nil, fmt.Errorf("set up %s: %w", spec.name, err)
	}
	return r, nil
}

func (r *runner) bringUp() error {
	var shapes []watch.Request
	for _, ms := range r.plan.members {
		for _, s := range ms.shapes {
			shapes = append(shapes, s.request())
		}
	}
	var err error
	if r.oracle, err = newOracle(r.prof.params.Watch, shapes); err != nil {
		return err
	}
	for _, ms := range r.plan.members {
		su, err := pisa.NewSU(nil, ms.id, ms.home, r.prof.params, r.dep.planner, r.dep.group)
		if err != nil {
			return err
		}
		m := &member{su: su}
		r.members = append(r.members, m)
		if err := r.dep.register(su.ID(), su.PublicKey()); err != nil {
			return err
		}
		for _, s := range ms.shapes {
			disc, err := r.disclosure(s.block)
			if err != nil {
				return err
			}
			req, err := su.PrepareRequest(s.request().EIRPUnits, disc)
			if err != nil {
				return err
			}
			m.base = append(m.base, req)
		}
		if len(m.base) > 0 {
			// Four requests' worth of pooled nonces, topped up in the
			// background when one is left, keeps refreshes on the
			// one-multiplication path and most of them clear of a refill.
			n := 4 * m.base[0].Ciphertexts()
			if err := su.PrecomputeNonces(n); err != nil {
				return err
			}
			if err := su.EnableNonceAutoRefill(n); err != nil {
				return err
			}
		}
	}
	for _, p := range r.plan.static {
		pu, err := r.newPU(p)
		if err != nil {
			return err
		}
		if _, err := r.tune(pu, p, true); err != nil {
			return err
		}
	}
	for _, p := range r.plan.churn {
		pu, err := r.newPU(p)
		if err != nil {
			return err
		}
		r.churn = append(r.churn, pu)
	}
	r.churnOn = make([]bool, len(r.churn))
	return nil
}

func (r *runner) close() {
	for _, m := range r.members {
		m.su.Close()
	}
	r.dep.close()
}

// disclosure is what a request at block b reveals: the full grid, or on
// a band workload the smallest row band covering the SU's footprint.
func (r *runner) disclosure(b geo.BlockID) (geo.Disclosure, error) {
	if !r.spec.band {
		return geo.Disclosure{}, nil
	}
	wp := r.prof.params.Watch
	var reach float64
	for c := 0; c < wp.Channels; c++ {
		d, err := r.dep.planner.ProtectionDistance(c)
		if err != nil {
			return geo.Disclosure{}, err
		}
		reach = math.Max(reach, d)
	}
	within, err := wp.Grid.BlocksWithin(b, reach)
	if err != nil {
		return geo.Disclosure{}, err
	}
	cols := wp.Grid.Cols()
	lo, hi := int(within[0])/cols, int(within[len(within)-1])/cols
	return wp.Grid.RowBand(lo, hi+1)
}

func (r *runner) newPU(p puSpec) (*pisa.PU, error) {
	col, err := r.dep.eColumn(p.block)
	if err != nil {
		return nil, err
	}
	return pisa.NewPU(nil, p.id, p.block, col, r.dep.group)
}

// tune switches pu on (to its channel) or off and delivers the update,
// mirroring it into the oracle first. It returns the time from the
// start of Tune/Off to the acknowledgement.
func (r *runner) tune(pu *pisa.PU, p puSpec, on bool) (ms float64, err error) {
	reg := watch.Registration{Block: p.block, Channel: -1}
	if on {
		reg = watch.Registration{Block: p.block, Channel: p.channel, SignalUnits: r.signal}
	}
	actor := string(p.id)
	root := r.tr.root(actor, "update")
	defer r.tr.end(root, 0)
	start := time.Now()
	id := r.tr.begin(actor, layerPU, "pu.tune", "", r.prof.params.Watch.Channels)
	var u *pisa.PUUpdate
	if on {
		u, err = pu.Tune(p.channel, r.signal)
	} else {
		u, err = pu.Off()
	}
	r.tr.end(id, 0)
	if err != nil {
		return 0, err
	}
	if err := r.oracle.begin(p.id, reg); err != nil {
		return 0, err
	}
	err = r.dep.update(u)
	r.oracle.end()
	return msSince(start), err
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// outcome is what one request contributed to a phase.
type outcome struct {
	ms      float64 // from the start of the latency clock
	busyMs  float64 // from when the client actually began
	end     time.Time
	granted bool
	err     error
}

// do runs one request from the SU's first call to its verified license
// and checks the decision against the oracle. due, when set, is the
// open loop's scheduled send time and the start of the latency clock.
func (r *runner) do(ev event, due time.Time) outcome {
	m := r.members[ev.member]
	m.mu.Lock()
	defer m.mu.Unlock()
	actor := m.su.ID()
	root := r.tr.root(actor, "request")
	defer r.tr.end(root, 0)
	began := time.Now()
	start := due
	if start.IsZero() {
		start = began
	}
	since := r.oracle.epoch()

	var req *pisa.TransmissionRequest
	var err error
	shapeIdx := -1
	if ev.rep >= 0 {
		shapeIdx = ev.member*r.spec.repeats + ev.rep
		id := r.tr.begin(actor, layerSU, "su.refresh", "", 0)
		req, err = m.su.RefreshRequest(m.base[ev.rep])
		r.tr.end(id, ciphertexts(req))
	} else {
		id := r.tr.begin(actor, layerSU, "su.prepare", "", 0)
		if err = m.su.MoveTo(ev.fresh.block); err == nil {
			var disc geo.Disclosure
			if disc, err = r.disclosure(ev.fresh.block); err == nil {
				req, err = m.su.PrepareRequest(ev.fresh.request().EIRPUnits, disc)
			}
		}
		r.tr.end(id, ciphertexts(req))
	}
	if err != nil {
		return outcome{err: err}
	}
	resp, err := r.dep.process(req)
	if err != nil {
		return outcome{err: err}
	}
	id := r.tr.begin(actor, layerSU, "su.open", "", 0)
	grant, err := m.su.OpenResponse(resp, req, r.dep.verify)
	r.tr.end(id, 0)
	if err != nil {
		return outcome{err: err}
	}
	ms, busyMs := msSince(start), msSince(began)
	ok, err := r.oracle.agrees(shapeIdx, ev.fresh.request(), since, grant.Granted)
	if err == nil && !ok {
		err = fmt.Errorf("oracle mismatch: SU %s %+v granted=%v", actor, ev, grant.Granted)
	}
	return outcome{ms: ms, busyMs: busyMs, end: time.Now(), granted: grant.Granted, err: err}
}

func ciphertexts(req *pisa.TransmissionRequest) int {
	if req == nil {
		return 0
	}
	return req.Ciphertexts()
}

// phase is the raw result of driving the deployment for a while.
type phase struct {
	latMs     []float64   // verified, oracle-correct requests only
	busyMs    []float64   // the same requests without the open loop's queueing
	ends      []time.Time // when each of them was verified
	marks     []mark      // the window boundaries of the phase
	attempted int
	failed    int
	grants    int
	firstErr  error
	wallS     float64

	updateMs []float64 // PU writer: Tune/Off start -> acknowledged
	lateMs   []float64 // open loop: how late each send was
	backlog  int       // open loop: most requests due but not yet started
}

// mark is the process's CPU time read at a wall-clock instant.
type mark struct {
	at   time.Time
	cpuS float64
}

// windows is how many equal stretches a phase is cut into. The
// end-to-end metrics are medians over the windows, so a few seconds of
// a busy host move one window, not the run's figure, and each window is
// held against the yardstick samples of its own stretch.
const windows = 5

// window is the part of a phase between two marks.
type window struct {
	stretch
	latMs []float64
	cpuS  float64 // the process's, the yardstick's included
}

// cut sorts the phase's requests into its windows by the time each was
// verified. Requests that finished after the last mark (the closed
// loop's stragglers) belong to no window.
func (p *phase) cut() []window {
	if len(p.marks) < 2 {
		return nil
	}
	out := make([]window, len(p.marks)-1)
	for i := range out {
		out[i].stretch = stretch{p.marks[i].at, p.marks[i+1].at}
		out[i].cpuS = p.marks[i+1].cpuS - p.marks[i].cpuS
	}
	for k, end := range p.ends {
		i := sort.Search(len(p.marks), func(i int) bool { return p.marks[i].at.After(end) }) - 1
		if i >= 0 && i < len(out) {
			out[i].latMs = append(out[i].latMs, p.latMs[k])
		}
	}
	return out
}

func (p *phase) add(o outcome) {
	p.attempted++
	if o.err != nil {
		p.failed++
		if p.firstErr == nil {
			p.firstErr = o.err
		}
		return
	}
	p.latMs = append(p.latMs, o.ms)
	p.busyMs = append(p.busyMs, o.busyMs)
	p.ends = append(p.ends, o.end)
	if o.granted {
		p.grants++
	}
}

func (p *phase) merge(q *phase) {
	p.latMs = append(p.latMs, q.latMs...)
	p.busyMs = append(p.busyMs, q.busyMs...)
	p.ends = append(p.ends, q.ends...)
	p.attempted += q.attempted
	p.failed += q.failed
	p.grants += q.grants
	if p.firstErr == nil {
		p.firstErr = q.firstErr
	}
	p.updateMs = append(p.updateMs, q.updateMs...)
	p.lateMs = append(p.lateMs, q.lateMs...)
	p.backlog = max(p.backlog, q.backlog)
}

// rusage reads the process's CPU time so far (user + system) and its
// high-water resident set (Linux reports ru_maxrss in KiB, the same
// figure as VmHWM).
func rusage() (cpuS, peakMiB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024
}

func cpuSeconds() float64 {
	cpu, _ := rusage()
	return cpu
}

// drive runs the workload's requests against the deployment for dur
// and, on a churn workload, the PU writer beside them. closed forces a
// closed loop even on a workload with an arrival rate. name seeds the
// phase's streams.
func (r *runner) drive(name string, dur time.Duration, closed bool) *phase {
	total := &phase{}
	start := time.Now()
	deadline := start.Add(dur)

	// Beside the clients: the window marker and, on a churn workload,
	// the PU writer.
	var side sync.WaitGroup
	total.marks = []mark{{start, cpuSeconds()}}
	side.Add(1)
	go func() {
		defer side.Done()
		for i := 1; i <= windows; i++ {
			time.Sleep(time.Until(start.Add(dur * time.Duration(i) / windows)))
			total.marks = append(total.marks, mark{time.Now(), cpuSeconds()})
		}
	}()
	stopChurn := make(chan struct{})
	churnPart := &phase{}
	if r.spec.churnRate > 0 {
		side.Add(1)
		go func() {
			defer side.Done()
			r.writer(name, churnPart, stopChurn)
		}()
	}

	// client is what each of the spec.clients goroutines runs.
	var client func(c int, part *phase)
	if r.spec.openRate > 0 && !closed {
		due := r.plan.arrivals(name, dur)
		next := r.plan.events(name, -1)
		evs := make([]event, len(due))
		for i := range evs {
			evs[i] = next()
		}
		var cursor atomic.Int64
		client = func(_ int, part *phase) {
			for {
				i := int(cursor.Add(1) - 1)
				if i >= len(evs) {
					return
				}
				at := start.Add(due[i])
				time.Sleep(time.Until(at))
				// Everything due by now and not yet picked up is
				// waiting behind this request.
				now := time.Since(start)
				waiting := sort.Search(len(due), func(k int) bool { return due[k] > now }) - i - 1
				part.backlog = max(part.backlog, waiting)
				part.lateMs = append(part.lateMs, float64(now-due[i])/1e6)
				part.add(r.do(evs[i], at))
			}
		}
	} else {
		client = func(c int, part *phase) {
			next := r.plan.events(name, c)
			for time.Now().Before(deadline) {
				part.add(r.do(next(), time.Time{}))
			}
		}
	}
	parts := make([]*phase, r.spec.clients)
	var wg sync.WaitGroup
	for c := range parts {
		parts[c] = &phase{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			client(c, parts[c])
		}()
	}
	wg.Wait()
	total.wallS = time.Since(start).Seconds()
	close(stopChurn)
	side.Wait()
	for _, p := range parts {
		total.merge(p)
	}
	total.merge(churnPart)
	return total
}

// writer is the churn workload's PU writer: one Tune/Off toggle per
// tick of a fixed-rate clock, on a seeded choice of PU.
func (r *runner) writer(name string, out *phase, stop <-chan struct{}) {
	next := r.plan.churnSteps(name)
	tick := time.NewTicker(time.Duration(float64(time.Second) / r.spec.churnRate))
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		i := next()
		ms, err := r.tune(r.churn[i], r.plan.churn[i], !r.churnOn[i])
		out.attempted++
		if err != nil {
			out.failed++
			if out.firstErr == nil {
				out.firstErr = fmt.Errorf("PU update: %w", err)
			}
			continue
		}
		r.churnOn[i] = !r.churnOn[i]
		out.updateMs = append(out.updateMs, ms)
	}
}

// prime sends every repeated shape once, so the decision cache holds
// each and every lazily built table exists before anything is timed.
func (r *runner) prime() error {
	for m, ms := range r.plan.members {
		for k := range ms.shapes {
			if o := r.do(event{member: m, rep: k}, time.Time{}); o.err != nil {
				return fmt.Errorf("prime: %w", o.err)
			}
		}
	}
	return nil
}

// percentile interpolates linearly between order statistics.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
