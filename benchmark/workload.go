package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"pisa/internal/geo"
	"pisa/internal/pisa"
	"pisa/internal/propagation"
	"pisa/internal/watch"
)

// profile is the scale a run measures at. There is exactly one shipped
// profile ("bench"); the smoke test builds a smaller one of its own.
type profile struct {
	name   string
	params pisa.Params
	// setups is how many times an untraced run builds its deployment;
	// setup_s is the median build time.
	setups int
	// minSamples is the request-sample floor below which a run fails as
	// under-sampled instead of reporting a tail. A run at the bench
	// profile has 170 to 420 samples; the floor is there to catch a run
	// that is broken, not one that the host slowed down.
	minSamples int
	// microCalls is the number of direct calls per Paillier primitive
	// in the traced pass.
	microCalls int
	// scratch is the directory a durable workload keeps its WAL under.
	scratch string
}

// benchProfile is the fixed scale every committed number is taken at:
// pisa.DefaultParams (2048-bit Paillier, Table I widths, packing k=12,
// fixed-base engine, cache 1024, one worker per CPU) over a 4-channel
// 12x8 grid of 10 m blocks. The radio constants are those of
// bench.SmallParams, copied so a refactor of internal/bench cannot
// move the benchmark.
func benchProfile() (profile, error) {
	grid, err := geo.NewGrid(12, 8, 10)
	if err != nil {
		return profile{}, err
	}
	p := pisa.DefaultParams(watchParams(4, grid))
	return profile{name: "bench", params: p, setups: 3, minSamples: 50, microCalls: 200, scratch: ".bench_build"}, p.Validate()
}

func watchParams(channels int, grid *geo.Grid) watch.Params {
	return watch.Params{
		Channels:    channels,
		Grid:        grid,
		UnitsPerMW:  1e9,
		SUMaxEIRPmW: 4000,
		SMinPUmW:    1e-5,
		DeltaInt:    34,
		Secondary:   propagation.LogDistance{RefLossDB: 40, Exponent: 3.5},
		WorstCase:   propagation.LogDistance{RefLossDB: 60, Exponent: 4},
	}
}

// topology names how the roles of a workload are wired together.
type topology int

const (
	topoMono    topology = iota // SU -> SDC -> STP, direct calls
	topoTCP                     // SU -> TCP -> SDC -> TCP -> STP
	topoSharded                 // SU -> TCP -> router -> TCP -> 2 shards -> TCP -> STP
)

// workloadSpec is the fixed part of a workload: what is deployed and
// how it is driven. Everything seed-dependent lives in plan.
type workloadSpec struct {
	name string
	why  string
	topo topology
	// durable journals PU updates to a WAL (default fsync policy).
	durable bool
	// members is the SU fleet size; repeats the repeated shapes each
	// member holds; freshEvery makes every n-th event of a client a
	// never-seen shape (1 = all fresh, 0 = none).
	members, repeats, freshEvery int
	// band requests disclose the smallest row band covering the SU's
	// footprint instead of the full grid.
	band bool
	// openRate > 0 makes the traced run an open loop at that many
	// requests per second (the untraced run is always a closed loop).
	// Either way clients is the number of requests that may be in flight.
	openRate float64
	clients  int
	// churnRate > 0 adds one PU writer issuing that many Tune/Off
	// updates per second beside the requests.
	churnRate float64
	// densePUs covers the grid with a static PU lattice on one channel
	// (for fresh shapes at arbitrary blocks); otherwise each member
	// gets one static PU at its home block.
	densePUs bool
}

var workloads = []workloadSpec{
	{
		name: "fresh_full", topo: topoMono, members: 2, freshEvery: 1, clients: 2, densePUs: true,
		why: "in-process, closed loop, every request a never-seen full-grid shape: the paper's Figure 5 cold path, cache can never hit, no socket",
	},
	{
		name: "repeat_band_tcp", topo: topoTCP, members: 8, repeats: 3, band: true, openRate: 10, clients: 2,
		why: "loopback TCP, fleet of 8 refreshing 3 band shapes each: cache hits, two wire hops, fixed costs; the traced run is an open loop at 10 req/s and shows queueing",
	},
	{
		name: "sharded_mix_tcp", topo: topoSharded, members: 2, repeats: 3, freshEvery: 3, clients: 2, densePUs: true,
		why: "router and 2 shards behind sockets, closed loop, full-grid shapes, one in three never seen before: slice, fan-out, slowest-shard wait, merge",
	},
	{
		name: "churn_rw", topo: topoMono, durable: true, members: 4, repeats: 3, band: true, clients: 2, churnRate: 5,
		why: "in-process with a WAL, closed loop on repeated band shapes while a PU writer updates blocks inside them: rebuild, invalidation, lock hand-off",
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// puSpec is one TV receiver: where it is and what it tunes to.
type puSpec struct {
	id      watch.PUID
	block   geo.BlockID
	channel int
}

// shape is the plaintext content of one request.
type shape struct {
	block   geo.BlockID
	channel int
	eirp    int64
}

func (s shape) request() watch.Request {
	return watch.Request{Block: s.block, EIRPUnits: map[int]int64{s.channel: s.eirp}}
}

// memberSpec is one fleet SU: its home block and the shapes it repeats.
type memberSpec struct {
	id     string
	home   geo.BlockID
	shapes []shape
}

// event is one request a client issues: member's repeated shape number
// rep, or, when rep < 0, the never-seen shape fresh.
type event struct {
	member int
	rep    int
	fresh  shape
}

// plan is everything a run derives from its seed. The program under
// test never sees the seed, only the requests and updates built from
// the plan.
type plan struct {
	spec      workloadSpec
	seed      int64
	wp        watch.Params
	busy      int // channel of the static receivers
	churnChan int // channel the churn writer's receivers tune to
	static    []puSpec
	churn     []puSpec
	members   []memberSpec
}

// mix derives an independent generator for one purpose of one run.
func (p *plan) mix(purpose string, n int) *rand.Rand {
	h := sha256.Sum256([]byte(fmt.Sprintf("%s/%d/%s/%d", p.spec.name, p.seed, purpose, n)))
	var s int64
	for _, b := range h[:8] {
		s = s<<8 | int64(b)
	}
	return rand.New(rand.NewSource(s))
}

// highEIRP draws a power between a quarter of and the whole regulatory
// cap: enough that a same-channel receiver in the SU's footprint is
// always interfered with, and a 3e12-wide range so two draws never
// collide (a fresh shape is never a cache hit).
func highEIRP(r *rand.Rand, wp watch.Params) int64 {
	limit := wp.Quantize(wp.SUMaxEIRPmW)
	return limit/4 + r.Int63n(limit-limit/4)
}

// lowEIRP draws a power of 1 to 10 mW, which even a receiver in the
// SU's own block tolerates.
func lowEIRP(r *rand.Rand, wp watch.Params) int64 {
	return wp.Quantize(1) + r.Int63n(wp.Quantize(9))
}

// newPlan derives a run's inputs. slots is the deployment's packing
// width k (1 when unpacked).
func newPlan(spec workloadSpec, wp watch.Params, slots int, seed int64) *plan {
	p := &plan{spec: spec, seed: seed, wp: wp}
	r := p.mix("layout", 0)
	blocks := wp.Grid.Blocks()
	// One channel carries the static receivers, the next belongs to the
	// churn writer, and the rest stay empty: requests there are granted.
	chans := r.Perm(wp.Channels)
	p.busy, p.churnChan = chans[0], chans[1%wp.Channels]

	// Homes keep off the top and bottom rows where the grid allows, so
	// every band request covers the same number of rows. Their positions
	// inside a packed slot group are spread evenly and do not depend on
	// the seed: a PU update costs one full-width exponentiation per
	// channel when its block sits in a high slot and next to nothing in
	// slot 0, so homes drawn freely would make a seed cheap or dear.
	cols, rows := wp.Grid.Cols(), wp.Grid.Rows()
	var homes []int
	groups := r.Perm((blocks + slots - 1) / slots)
	taken := map[int]bool{}
	for m := 0; len(homes) < spec.members; m++ {
		if m > len(groups)*spec.members {
			panic("benchmark: grid too small to place the fleet")
		}
		b := groups[m%len(groups)]*slots + (2*len(homes)+1)*slots/(2*spec.members)
		if row := b / cols; b < blocks && !taken[b] && (rows < 3 || (row > 0 && row < rows-1)) {
			homes, taken[b] = append(homes, b), true
		}
	}
	for m := 0; m < spec.members; m++ {
		ms := memberSpec{id: fmt.Sprintf("su-%02d", m), home: geo.BlockID(homes[m])}
		for k := 0; k < spec.repeats; k++ {
			// Shape 0 asks for high power on the busy channel (denied),
			// shape 1 for high power on the churn channel (granted unless
			// a writer's PU is on), later ones for low power on the busy
			// channel (granted even beside a receiver).
			sh := shape{block: ms.home, channel: p.busy, eirp: highEIRP(r, wp)}
			switch {
			case k == 1:
				sh.channel = p.churnChan
			case k > 1:
				sh.eirp = lowEIRP(r, wp)
			}
			ms.shapes = append(ms.shapes, sh)
		}
		p.members = append(p.members, ms)
	}

	if spec.densePUs {
		// A plus-pentomino lattice: every interior block has exactly one
		// receiver in its five-block footprint.
		off := r.Intn(5)
		for b := 0; b < blocks; b++ {
			if (b%cols+2*(b/cols)+off)%5 == 0 {
				p.static = append(p.static, puSpec{id: watch.PUID(fmt.Sprintf("tv-%03d", b)), block: geo.BlockID(b), channel: p.busy})
			}
		}
	} else {
		for _, ms := range p.members {
			p.static = append(p.static, puSpec{id: watch.PUID("tv-" + ms.id), block: ms.home, channel: p.busy})
		}
	}
	if spec.churnRate > 0 {
		for _, ms := range p.members {
			p.churn = append(p.churn, puSpec{id: watch.PUID("churn-" + ms.id), block: ms.home, channel: p.churnChan})
		}
	}
	return p
}

// events returns client c's request stream for one phase of the run.
// Closed-loop clients own the members congruent to c, so one SU never
// has two requests in flight; the open loop (client -1) draws from the
// whole fleet and the per-member lock serialises the rare collision.
func (p *plan) events(phase string, client int) func() event {
	r := p.mix("events/"+phase, client)
	n := 0
	return func() event {
		i := n
		n++
		var m int
		if client < 0 {
			m = r.Intn(len(p.members))
		} else {
			own := (len(p.members) - client + p.spec.clients - 1) / p.spec.clients
			m = client + p.spec.clients*(i%own)
		}
		if p.spec.freshEvery > 0 && i%p.spec.freshEvery == 0 {
			// Every other fresh shape asks for the busy channel, so grants
			// and denials both stay common whatever the channel count.
			c := p.busy
			if i/p.spec.freshEvery%2 == 1 {
				c = (p.busy + 1 + r.Intn(p.wp.Channels-1)) % p.wp.Channels
			}
			return event{member: m, rep: -1, fresh: shape{
				block: geo.BlockID(r.Intn(p.wp.Grid.Blocks())), channel: c, eirp: highEIRP(r, p.wp),
			}}
		}
		return event{member: m, rep: (i / max(p.spec.freshEvery, 1)) % p.spec.repeats}
	}
}

// arrivals returns the open loop's due times: one arrival in every
// 1/rate slot, at a seeded uniform offset inside its slot. Every seed
// offers exactly the same load; neighbouring arrivals fall anywhere from
// together to two slots apart, so requests do overlap and queue, but a
// 20 s run cannot be made or broken by one long burst. (Independent
// exponential gaps, tried first, let the 90th percentile swing by a quarter
// from seed to seed, which no regression bound survives.)
func (p *plan) arrivals(phase string, dur time.Duration) []time.Duration {
	n := int(p.spec.openRate*dur.Seconds() + 0.5)
	r := p.mix("arrivals/"+phase, 0)
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration((float64(i) + r.Float64()) * float64(dur) / float64(n))
	}
	return due
}

// churnSteps returns the PU writer's stream for one phase: which churn
// PU to toggle next (tune it to its channel when off, switch it off
// when on). The PUs come in a seeded order, round and round, so every
// seed toggles each (differently expensive) receiver equally often.
func (p *plan) churnSteps(phase string) func() int {
	order := p.mix("churn/"+phase, 0).Perm(len(p.churn))
	n := 0
	return func() int {
		n++
		return order[(n-1)%len(order)]
	}
}

// digest commits to the plan and the head of every stream, so a test
// can pin the generator.
func (p *plan) digest() string {
	h := sha256.New()
	pus := append(append([]puSpec(nil), p.static...), p.churn...)
	sort.Slice(pus, func(i, j int) bool { return pus[i].id < pus[j].id })
	fmt.Fprintln(h, pus, p.members)
	for c := -1; c < p.spec.clients; c++ {
		next := p.events("measure", c)
		for i := 0; i < 32; i++ {
			fmt.Fprintln(h, next())
		}
	}
	if p.spec.openRate > 0 {
		fmt.Fprintln(h, p.arrivals("measure", 4*time.Second))
	}
	if len(p.churn) > 0 {
		next := p.churnSteps("measure")
		for i := 0; i < 32; i++ {
			fmt.Fprintln(h, next())
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
