package pisa

import (
	"crypto/rand"
	"crypto/rsa"
	"fmt"
	"io"
	"math/big"
	"slices"
	"sync"
	"time"

	"pisa/internal/geo"
	"pisa/internal/matrix"
	"pisa/internal/paillier"
	"pisa/internal/parallel"
	"pisa/internal/watch"
)

// SDC is the spectrum database controller. It keeps the interference
// budget matrix N~ only in encrypted form and processes PU updates
// (eqs. 8-10) and SU requests (eqs. 11-17) homomorphically. The SDC
// never holds the group secret key, so it learns neither the PU
// channel receptions, nor the SU parameters, nor the decisions.
//
// Concurrency model: s.mu protects only the mutable protocol state
// (N~, the PU registry, the decision cache). The expensive
// homomorphic work runs outside the lock over an immutable snapshot —
// ciphertexts are never mutated in place, so a snapshot of
// entry pointers stays valid — which lets concurrent SU requests and
// PU updates overlap. A PU update holds its slot group's update lock
// from computing the group's column to journaling it, and installs the
// update and the column together under s.mu (HandlePUUpdate).
type SDC struct {
	params Params
	group  *paillier.PublicKey
	stp    STPService
	*publicData
	random io.Reader
	// router is the request front: a full-window instance serves SU
	// requests through a one-shard router over itself, which holds the
	// licenser. nil on a windowed shard, whose router is elsewhere.
	router *Router

	// chanLo, chanHi bound the channel rows [chanLo, chanHi) this
	// instance owns. A monolithic SDC owns every row; a shard of a
	// channel-sharded deployment (WithChannelWindow, DESIGN.md §15)
	// owns a slice, encrypts and rebuilds only its rows, and serves
	// them through ProcessShard — ProcessRequest refuses, because a
	// window-local decision is not the whole-matrix decision.
	chanLo, chanHi int

	// codec is the deployment's slot codec (Params.SlotCodec): budgets
	// and requests carry codec.Slots() block cells per ciphertext and the
	// STP sign test runs slot-wise. The paper's one-cell-per-ciphertext
	// layout is the same pipeline at one slot.
	codec *paillier.SlotCodec
	// betaCodec shares codec's slot geometry but opens the payload to
	// the full slot width: beta blinding factors are BetaBits wide,
	// which may exceed the PlaintextBits payload budget values obey.
	// Layout-compatible with codec (same slots x slot bits), so packed
	// betas subtract slot-wise from packed alpha*I.
	betaCodec *paillier.SlotCodec

	// suKeys resolves a request's SU id to a prepared key, asking the
	// STP once per id; shared with the router's license tail, whose
	// encryptions table a key on its first license. A windowed shard
	// never encrypts under an SU key and builds no table (sukeys.go).
	suKeys *SUKeyCache

	mu        sync.Mutex
	nPack     *matrix.Packed           // N~: encrypted budgets, slot-packed
	puUpdates map[watch.PUID]*PUUpdate // latest update per PU, at its fixed Block
	// cache memoises the aggregate output Ĩ per request (cacheKey); at
	// Params.CacheEntries 0 no request consults it. Guarded by mu.
	cache   *decisionCache
	journal func(*PUUpdate) error // WAL hook; called outside the lock

	// updateMu[g] serialises the PU updates of slot group g, the only
	// writers of its column; updates in different groups overlap.
	updateMu []sync.Mutex
}

// SDCOption customises SDC construction.
type SDCOption interface {
	apply(*sdcOptions)
}

// sdcOptions is the SDC under construction plus what only its router's
// licenser keeps.
type sdcOptions struct {
	*SDC
	now func() time.Time
}

type sdcOptionFunc func(*sdcOptions)

func (f sdcOptionFunc) apply(o *sdcOptions) { f(o) }

// WithChannelWindow restricts the instance to the channel rows
// [lo, hi) of the budget matrix — one shard of a channel-sharded
// deployment. Only those rows are encrypted at boot and rebuilt on PU
// updates, and only ProcessShard may serve requests (a Router over the
// shards merges the per-shard partials and issues the license). The
// default window is the full channel range, whose instance is its own
// one-shard router.
func WithChannelWindow(lo, hi int) SDCOption {
	return sdcOptionFunc(func(o *sdcOptions) { o.chanLo, o.chanHi = lo, hi })
}

// WithUpdateJournal installs a write-ahead hook: every accepted PU
// update is passed to fn before it is acknowledged, so a durable
// deployment can append it to a log (internal/store). fn runs after the
// update and its column are installed, under the slot group's update
// lock and never under the SDC's state lock, so it may export state; it
// must be safe for concurrent calls from different groups. A fn error
// restores the previous update and column and rejects the update towards
// the PU; re-sending is idempotent.
func WithUpdateJournal(fn func(*PUUpdate) error) SDCOption {
	return sdcOptionFunc(func(o *sdcOptions) { o.journal = fn })
}

// NewSDC builds the controller: performs the plaintext initialisation
// step of §IV-A1 (E matrix and protection distances from public data
// only), builds its one-shard router unless it is a windowed shard, and
// encrypts the initial budget matrix N~ = E~ under the group key fetched
// from the STP.
func NewSDC(issuer string, params Params, transmitters []watch.TVTransmitter, stp STPService, opts ...SDCOption) (*SDC, error) {
	s, err := newSDCBase(issuer, params, transmitters, stp, opts)
	if err != nil {
		return nil, err
	}
	if err := s.encryptInitialBudgets(); err != nil {
		return nil, err
	}
	return s, nil
}

// encryptInitialBudgets populates N~ = E~ for the channel rows this
// instance owns — shared by NewSDC and RestoreSDC's fresh-boot path.
// The slots beyond the last block are padded with a constant 1: a
// padding slot's blinded test value is eps*(alpha*1 - beta), strictly
// positive before the flip (BetaBits < AlphaBits), so padding always
// "passes" and never shows in the grant indicator.
func (s *SDC) encryptInitialBudgets() error {
	var err error
	s.nPack, err = matrix.PackEncryptIntsWindow(s.random, s.group, s.codec, s.ePlain, 1, s.chanLo, s.chanHi, parallel.Auto())
	if err != nil {
		return fmt.Errorf("pisa: encrypt initial budgets: %w", err)
	}
	return nil
}

// newSDCBase performs every construction step except populating the
// encrypted budget matrix: NewSDC encrypts a fresh N~ = E~, while
// RestoreSDC (persist.go) installs the matrix recovered from a
// snapshot instead.
func newSDCBase(issuer string, params Params, transmitters []watch.TVTransmitter, stp STPService, opts []SDCOption) (*SDC, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if stp == nil {
		return nil, fmt.Errorf("pisa: SDC requires an STP service")
	}
	public, err := newPublicData(params.Watch, transmitters)
	if err != nil {
		return nil, err
	}
	s := &SDC{
		params:     params,
		group:      stp.GroupKey(),
		stp:        stp,
		publicData: public,
		random:     rand.Reader,
		puUpdates:  make(map[watch.PUID]*PUUpdate),
	}
	o := sdcOptions{SDC: s}
	for _, opt := range opts {
		opt.apply(&o)
	}
	if s.chanLo == 0 && s.chanHi == 0 {
		s.chanHi = params.Watch.Channels
	}
	if s.chanLo < 0 || s.chanHi > params.Watch.Channels || s.chanLo >= s.chanHi {
		return nil, fmt.Errorf("pisa: channel window [%d, %d) outside [0, %d)",
			s.chanLo, s.chanHi, params.Watch.Channels)
	}
	// Worker goroutines and concurrent requests share the randomness
	// source; SharedReader serialises injected readers (crypto/rand is
	// passed through) without changing the byte stream.
	s.random = paillier.SharedReader(s.random)
	s.suKeys = newSUKeyCache(stp)
	// The in-process STP's key meets the check a fetched one does
	// (node.DialSTPWith): every nonce the SDC draws is a power of its H.
	if err := s.group.Check(); err != nil {
		return nil, fmt.Errorf("pisa: group key: %w", err)
	}
	// Budget encryptions, column rebuilds and blinding-factor generation
	// share the group key across workers; the first of their nonces
	// builds its table.
	s.group.Prepare()
	if s.codec, err = params.SlotCodec(); err != nil {
		return nil, err
	}
	if err := s.codec.CheckKey(s.group); err != nil {
		return nil, fmt.Errorf("pisa: packing: %w", err)
	}
	k := s.codec.Slots()
	s.updateMu = make([]sync.Mutex, (params.Watch.Grid.Blocks()+k-1)/k)
	if s.betaCodec, err = paillier.NewSlotCodec(s.codec.Slots(), s.codec.SlotBits(), s.codec.SlotBits()-2); err != nil {
		return nil, fmt.Errorf("pisa: packing: %w", err)
	}
	s.cache = newDecisionCache(params.CacheEntries)
	if !s.windowed() {
		// The engine is complete. Its request front is a one-shard router
		// over it that shares its public data, its SU-key cache and
		// its randomness, so a monolith computes E once and fetches each
		// SU key once.
		lic, err := newLicenser(issuer, params, s.random, o.now)
		if err != nil {
			return nil, err
		}
		if s.router, err = newRouter(s.publicData, s.suKeys, lic, []ShardService{s}); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// publicData is a deployment's public precomputation (§IV-A1): the
// plaintext E matrix and the planner's grid and protection distances,
// all derived from public data. A full-window SDC and its router share
// one; E never changes after construction, so reads take no lock.
type publicData struct {
	public *watch.System
	ePlain *matrix.Int // public's E, copied once
}

func newPublicData(wp watch.Params, transmitters []watch.TVTransmitter) (*publicData, error) {
	public, err := watch.NewSystem(wp, transmitters)
	if err != nil {
		return nil, fmt.Errorf("pisa: public precomputation: %w", err)
	}
	return &publicData{public: public, ePlain: public.EMatrix()}, nil
}

// Planner returns the public-data planner (grid, d^c) for parties
// that need to build requests against this deployment.
func (p *publicData) Planner() *watch.Planner { return p.public.Planner() }

// EColumn returns the plaintext E column for a block — public data a
// PU needs to form its offset update W = T - E.
func (p *publicData) EColumn(b geo.BlockID) ([]int64, error) {
	w := p.public.Params()
	if !w.Grid.Valid(b) {
		return nil, fmt.Errorf("pisa: block %d invalid", b)
	}
	col := make([]int64, w.Channels)
	for c := range col {
		v, err := p.ePlain.At(c, int(b))
		if err != nil {
			return nil, err
		}
		col[c] = v
	}
	return col, nil
}

// ChannelWindow reports the channel rows [lo, hi) this instance owns.
func (s *SDC) ChannelWindow() (lo, hi int) { return s.chanLo, s.chanHi }

// windowed reports whether this instance owns only a slice of the
// channel rows (a shard), which leaves it without a router of its own.
func (s *SDC) windowed() bool {
	return s.chanLo != 0 || s.chanHi != s.params.Watch.Channels
}

// Router returns the one-shard router a full-window instance serves its
// SU requests through, for callers that want its stats; nil on a
// windowed shard.
func (s *SDC) Router() *Router { return s.router }

// licenser is the router's licenser; nil on a windowed shard.
func (s *SDC) licenser() *Licenser {
	if s.router == nil {
		return nil
	}
	return s.router.lic
}

// VerifyKey returns the public key SUs use to check license
// signatures, or nil on a windowed shard, which issues none.
func (s *SDC) VerifyKey() *rsa.PublicKey { return s.licenser().VerifyKey() }

// requestCell tracks one request element through the blinded sign
// test: the request ciphertext, the budget snapshot, and the blinding
// tuple blindChunk draws for it. An element is
// one (channel, group) ciphertext carrying k block slots; b is its group.
type requestCell struct {
	c, b int
	f, n *paillier.Ciphertext
	bf   blindFactors
}

// ProcessRequest executes Figure 5 steps 3-11 for one SU request through
// the instance's one-shard router and returns the response to forward to
// the SU.
//
// A windowed instance (WithChannelWindow) refuses this path: its
// grant indicators cover only its own channel rows, so a license masked
// with them would encode a window-local decision, not the whole-matrix
// one. Shards serve ProcessShard; their router issues the license.
func (s *SDC) ProcessRequest(req *TransmissionRequest) (*Response, error) {
	if s.router == nil {
		return nil, fmt.Errorf("pisa: shard owns channels [%d, %d) only; SU requests must go through the shard router",
			s.chanLo, s.chanHi)
	}
	return s.router.ProcessRequest(req)
}

// ProcessShard runs Figure 5 steps 3-9 of an SU request over the channel
// rows this instance owns (DESIGN.md §15), as the stages its latency is
// traced by (pisa_sdc_request_stage_seconds; see metrics.go): the budget
// snapshot and cache lookup, the aggregation (eqs. 11-12), the blinding
// (eq. 14), the STP sign test and the eps unblinding (eq. 16). The answer
// carries the grant indicators D~ under the SU key, one per ciphertext of
// the STP's packed answer, each decrypting to 0 exactly when every slot
// test it covers passed and already corrected for this instance's own
// epsilons. A router hands the indicators of all its shards to its
// Licenser, which issues the single masked license.
// No serial is consumed and nothing is issued, so a retried or
// failed-over call is idempotent. The SDC cannot tell from anything it
// computes whether the request was granted.
//
// The critical section is the snapshot, plus the short write-backs of an
// entry the request installs or tables: the per-cell homomorphic work
// (eqs. 11, 12, 14), the STP round-trip, and the unblinding (eq. 16) all
// run without holding s.mu, so concurrent SU requests genuinely overlap.
func (s *SDC) ProcessShard(req *TransmissionRequest) (ans *ShardAnswer, err error) {
	m := metrics()
	m.requests.Inc()
	start := time.Now()
	defer func() {
		m.stage["total"].ObserveSince(start)
		if err != nil {
			m.requestErrors.Inc()
		}
	}()
	if req == nil || req.FP == nil {
		return nil, fmt.Errorf("pisa: nil request")
	}
	if req.SUID == "" {
		return nil, fmt.Errorf("pisa: request missing SU id")
	}
	w := s.params.Watch
	if req.FP.Channels() != w.Channels || req.FP.Blocks() != w.Grid.Blocks() {
		return nil, fmt.Errorf("pisa: request matrix %dx%d, want %dx%d",
			req.FP.Channels(), req.FP.Blocks(), w.Channels, w.Grid.Blocks())
	}
	// The slot geometry is a deployment parameter; both sides derive it
	// from the same Params.
	if !req.FP.Codec().Equal(s.codec) {
		return nil, fmt.Errorf("pisa: request slot codec does not match the deployment")
	}
	if !req.FP.Key().Equal(s.group) {
		return nil, fmt.Errorf("pisa: request not encrypted under the group key")
	}
	if req.FP.Populated() == 0 {
		return nil, fmt.Errorf("pisa: request matrix is empty")
	}
	r := &shardRequest{req: req}
	if r.suKey, err = s.suKeys.Get(req.SUID); err != nil {
		return nil, err
	}
	// The stages in pipeline order, index-aligned with requestStages.
	for i, stage := range []func(*shardRequest) error{s.snapshot, s.aggregate, s.blind, s.stpConvert, s.unblind} {
		t := time.Now()
		if err := stage(r); err != nil {
			return nil, err
		}
		m.stage[requestStages[i]].ObserveSince(t)
	}
	return &ShardAnswer{D: r.ds}, nil
}

// shardRequest is one request as ProcessShard's stages hand it on.
type shardRequest struct {
	req         *TransmissionRequest
	suKey       *paillier.PublicKey
	cells       []requestCell          // with their budget snapshot
	cacheLookup                        // what the cache serves, and what the request gives it
	is, vs      []*paillier.Ciphertext // I~ (eqs. 11-12) and V~ (eq. 14) per cell
	answer      *paillier.SlotCodec    // the layout of the STP's packed answer
	xs, ds      []*paillier.Ciphertext // the STP's X~ and the indicators D~
}

// snapshot is the request's critical section: the budget ciphertext of
// every populated request cell and, against those same ciphertexts, the
// decision cache's lookup, under the key hashed before the lock. A
// populated cell outside the window is refused: an SU populates every
// channel row of the groups it ships, so the request was sliced for
// another window, the router's partition differs from the shard's, and
// some channel row would go untested.
func (s *SDC) snapshot(r *shardRequest) error {
	key, err := s.cacheKey(r.req)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	r.cells = make([]requestCell, 0, r.req.Ciphertexts())
	err = r.req.FP.ForEachGroup(func(c, g int, f *paillier.Ciphertext) error {
		if c < s.chanLo || c >= s.chanHi {
			return fmt.Errorf("pisa: request row %d lies outside the shard's window [%d, %d): the router's partition differs from the shard's",
				c, s.chanLo, s.chanHi)
		}
		n, err := s.nPack.GroupAt(c, g)
		if err != nil {
			return err
		}
		r.cells = append(r.cells, requestCell{c: c, b: g, f: f, n: n})
		return nil
	})
	if err == nil {
		r.cacheLookup = s.lookupLocked(key, r.cells)
	}
	return err
}

// aggregate is the request's aggregate stage, steps 3-4 of Figure 5:
// R~ = X (x) F~, I~ = N~ (-) R~ (eqs. 11-12) for the cells the lookup
// left to recompute, the cached I~ for the others, and the install of
// the entry the lookup prepared. A cached I~ is used as it is, read-only:
// it never leaves the SDC, and the blinding multiplies it by a tuple's
// E(-eps*beta), whose own fresh nonce is all a re-randomisation would add
// (DESIGN.md §14).
func (s *SDC) aggregate(r *shardRequest) error {
	m := metrics()
	start := time.Now()
	r.is = make([]*paillier.Ciphertext, len(r.cells))
	if r.from != nil {
		copy(r.is, r.from.is)
	}
	if len(r.recompute) == 0 {
		m.cacheAggHit.ObserveSince(start)
		return nil
	}
	if err := s.aggregateCells(r.is, r.cells, r.recompute); err != nil {
		return err
	}
	if r.install != nil {
		s.installEntry(&r.cacheLookup, r.is)
	}
	if s.cache.cap > 0 {
		m.cacheAggMiss.ObserveSince(start)
	}
	return nil
}

// aggregateCells computes I~ = N~ (-) X (x) F~ (eqs. 11-12) into is[k]
// for the cells k listed in todo, on the worker pool, from the request
// ciphertext and the budget snapshot each cell carries.
func (s *SDC) aggregateCells(is []*paillier.Ciphertext, cells []requestCell, todo []int) error {
	deltaX := big.NewInt(s.params.Watch.DeltaInt)
	return parallel.ForChunks(parallel.Auto(), len(todo), func(lo, hi int) error {
		chunk := todo[lo:hi]
		rs := make([]*paillier.Ciphertext, len(chunk))
		for j, k := range chunk {
			cell := &cells[k]
			r, err := s.group.ScalarMul(deltaX, cell.f) // eq. 11
			if err != nil {
				return fmt.Errorf("scale F(%d, %d): %w", cell.c, cell.b, err)
			}
			rs[j] = r
		}
		// eq. 12, I~ = N~ * R~^-1, on one modular inversion per chunk.
		negs, err := s.group.NegBatch(rs)
		if err != nil {
			cell := &cells[chunk[slices.Index(negs, nil)]]
			return fmt.Errorf("budget at (%d, %d): %w", cell.c, cell.b, paillier.ErrInvalidCiphertext)
		}
		for j, k := range chunk {
			cell := &cells[k]
			if is[k], err = s.group.Add(cell.n, negs[j]); err != nil {
				return fmt.Errorf("budget at (%d, %d): %w", cell.c, cell.b, err)
			}
		}
		return nil
	})
}

// Close empties the decision cache and the SU-key cache and gives their
// entries and power-table bytes back to the process-wide gauges, so a
// retired SDC stops counting in pisa_sdc_cache_entries,
// pisa_sdc_cache_table_bytes and pisa_sdc_sukey_cache_entries. Request
// and update processing keep working after Close, refilling the caches.
// Safe to call more than once.
func (s *SDC) Close() {
	s.suKeys.clear()
	s.mu.Lock()
	s.cache.clear()
	s.mu.Unlock()
}
