package pisa

import (
	"crypto/rand"
	"crypto/rsa"
	"fmt"
	"io"
	"math/big"
	"slices"
	"sync"
	"sync/atomic"
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
// PU updates overlap. Per-block version counters detect when a column
// rebuild raced a newer update and must recompute.
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

	// cacheCtr mirrors the obs cache counters per instance: the obs
	// registry aggregates process-wide, so a sharded deployment reads
	// each shard's hit/miss/stale split from here (CacheStats).
	cacheCtr cacheCounters

	mu        sync.Mutex
	nPack     *matrix.Packed               // N~: encrypted budgets, slot-packed
	puUpdates map[watch.PUID]*storedUpdate // latest update per PU
	puBlocks  map[watch.PUID]geo.BlockID   // fixed registered locations
	colVer    map[geo.BlockID]uint64       // bumped on every update registration
	// colApplied is bumped to the registration version a rebuild pass
	// actually folded into the stored budget, in the same critical
	// section as the write-back. It trails colVer while a rebuild is in
	// flight, which is exactly what makes it the right cache key: the
	// budget CONTENT a request snapshot reads is identified by
	// colApplied, not colVer (between registration and write-back the
	// old content is still being served — by recomputes and cache hits
	// alike, so the two always agree).
	colApplied map[geo.BlockID]uint64
	// cache memoises the aggregate output Ĩ per (sharing scope,
	// request shape); nil when Params.CacheEntries is 0. Guarded by mu.
	cache *decisionCache
	// cacheDomain maps an SUID to its operator-declared cache domain
	// (Params.CacheDomains). SUs absent from the map get a private
	// per-SU scope. Immutable after construction, so readable without
	// mu.
	cacheDomain map[string]string
	journal     func(*PUUpdate) error // WAL hook; called outside the lock
}

// blindFactors is one (alpha, beta, epsilon) tuple for eq. 14, drawn
// by blindChunk for the request cell it blinds. The beta encryption is
// the expensive part: one packed encryption per cell, on every request.
// beta is stored already signed for its epsilon — betaEnc encrypts
// -eps*beta — so that blinding is V~ = I~^(eps*alpha) * betaEnc: one
// exponentiation and one multiplication, plus for eps = -1 an inverse
// that blindChunk shares between the cells of a worker's chunk.
type blindFactors struct {
	alpha   *big.Int
	betaEnc *paillier.Ciphertext // E(-eps*beta), slot-wise
	eps     int64
}

// storedUpdate is a PU's latest accepted update together with the memo
// of its slot-shifted ciphertexts. A packed rebuild folds the update
// into its group as Cts[c]^(2^(slot*W)) — one full-width exponentiation
// per owned channel — and that value depends on nothing but the update
// and its block, so it is computed by the first rebuild pass that folds
// the update and reused by every later rebuild of the group (another
// PU of the group changing). The memo lives and dies with the
// stored update: replacing the update stores a new one without a memo,
// a journal rollback re-installs the previous one with its own, and a
// restored SDC starts without any.
type storedUpdate struct {
	*PUUpdate
	// shifted[j] is Cts[chanLo+j] shifted to the block's slot; nil until
	// first folded. Guarded by SDC.mu.
	shifted []*paillier.Ciphertext
}

// SDCOption customises SDC construction.
type SDCOption interface {
	apply(*sdcOptions)
}

// sdcOptions is the SDC under construction plus what only its router's
// licenser keeps.
type sdcOptions struct {
	*SDC
	now    func() time.Time
	licTTL time.Duration
}

type sdcOptionFunc func(*sdcOptions)

func (f sdcOptionFunc) apply(o *sdcOptions) { f(o) }

// WithClock injects a deterministic license clock (tests).
func WithClock(now func() time.Time) SDCOption {
	return sdcOptionFunc(func(o *sdcOptions) { o.now = now })
}

// WithLicenseTTL sets the license validity window (default 24h).
func WithLicenseTTL(ttl time.Duration) SDCOption {
	return sdcOptionFunc(func(o *sdcOptions) { o.licTTL = ttl })
}

// WithRandom injects the randomness source (default crypto/rand).
func WithRandom(r io.Reader) SDCOption {
	return sdcOptionFunc(func(o *sdcOptions) { o.random = r })
}

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
// deployment can append it to a log (internal/store). fn runs outside
// the SDC's state lock and must be safe for concurrent calls. A fn
// error rejects the update towards the PU; re-sending is idempotent.
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
		puUpdates:  make(map[watch.PUID]*storedUpdate),
		puBlocks:   make(map[watch.PUID]geo.BlockID),
		colVer:     make(map[geo.BlockID]uint64),
		colApplied: make(map[geo.BlockID]uint64),
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
	if s.betaCodec, err = paillier.NewSlotCodec(s.codec.Slots(), s.codec.SlotBits(), s.codec.SlotBits()-2); err != nil {
		return nil, fmt.Errorf("pisa: packing: %w", err)
	}
	if params.CacheEntries > 0 {
		s.cache = newDecisionCache(params.CacheEntries)
		s.cacheDomain = make(map[string]string)
		for domain, members := range params.CacheDomains {
			for _, su := range members {
				s.cacheDomain[su] = domain
			}
		}
	}
	if !s.windowed() {
		// The engine is complete. Its request front is a one-shard router
		// over it that shares its public data, its SU-key cache and
		// its randomness, so a monolith computes E once and fetches each
		// SU key once.
		lic, err := newLicenser(issuer, params, s.random, o.now, o.licTTL)
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

// HandlePUUpdate ingests a channel-reception update (Figure 4 steps
// 4): stores the PU's latest W~ column and rebuilds the encrypted
// budget column N~(:, b) = E~(:, b) (+) sum of W~ columns at b
// (eqs. 9-10). The E column is re-encrypted fresh on every rebuild,
// matching the paper's measured update cost (about C encryptions plus
// C homomorphic additions, about 2.6 s at paper scale). The
// encryptions and folds run outside the state lock on the worker
// pool, so updates overlap with concurrent SU requests.
func (s *SDC) HandlePUUpdate(u *PUUpdate) (err error) {
	m := metrics()
	start := time.Now()
	defer func() {
		m.puUpdate.ObserveSince(start)
		if err != nil {
			m.puUpdateErrors.Inc()
		}
	}()
	if err := s.validateUpdate(u); err != nil {
		return err
	}
	stored := &storedUpdate{PUUpdate: u}
	s.mu.Lock()
	prev := s.puUpdates[u.PUID] // nil when the PU had no update before
	if prev != nil && prev.Block != u.Block {
		s.mu.Unlock()
		return fmt.Errorf("pisa: PU %q registered at block %d, update claims %d (TV receiver locations are fixed)",
			u.PUID, prev.Block, u.Block)
	}
	s.puBlocks[u.PUID] = u.Block
	s.puUpdates[u.PUID] = stored
	s.colVer[u.Block]++
	journal := s.journal
	s.mu.Unlock()
	// The WAL append runs outside the lock-shrunk critical section so
	// durable deployments keep the update/request concurrency. The
	// update is acknowledged only after it is journaled; on a journal
	// error the registration is rolled back and the PU sees a failure,
	// so it re-sends (idempotent). Two concurrent updates from the
	// *same* PU may reach the log in the opposite of their registration
	// order — a sequential PU client never does that, and cross-PU
	// interleavings are independent.
	if journal != nil {
		if err := journal(u); err != nil {
			if rerr := s.unregisterUpdate(stored, prev); rerr != nil {
				return fmt.Errorf("pisa: journal PU update: %w (rollback rebuild also failed: %v)", err, rerr)
			}
			return fmt.Errorf("pisa: journal PU update: %w", err)
		}
	}
	return s.rebuildColumn(u.Block)
}

// unregisterUpdate reverts a registration whose WAL append failed, so
// in-memory state never runs ahead of the log: the previous update (or
// absence) is restored and the column is rebuilt in case a concurrent
// rebuild already folded the rejected ciphertexts in. A newer update
// from the same PU that registered meanwhile is left in place — its own
// journal/rebuild path governs it.
func (s *SDC) unregisterUpdate(u, prev *storedUpdate) error {
	s.mu.Lock()
	if s.puUpdates[u.PUID] != u {
		s.mu.Unlock()
		return nil
	}
	if prev != nil {
		s.puUpdates[u.PUID] = prev
	} else {
		delete(s.puUpdates, u.PUID)
		delete(s.puBlocks, u.PUID)
	}
	s.colVer[u.Block]++
	s.mu.Unlock()
	return s.rebuildColumn(u.Block)
}

// validateUpdate performs the stateless admission checks shared by the
// live update path and recovery replay.
func (s *SDC) validateUpdate(u *PUUpdate) error {
	if u == nil {
		return fmt.Errorf("pisa: nil PU update")
	}
	if u.PUID == "" {
		return fmt.Errorf("pisa: PU update missing id")
	}
	if !s.params.Watch.Grid.Valid(u.Block) {
		return fmt.Errorf("pisa: PU update block %d invalid", u.Block)
	}
	if len(u.Cts) != s.params.Watch.Channels {
		return fmt.Errorf("pisa: PU update has %d ciphertexts, want C=%d",
			len(u.Cts), s.params.Watch.Channels)
	}
	for c, ct := range u.Cts {
		if ct == nil || ct.C == nil {
			return fmt.Errorf("pisa: PU update ciphertext %d is nil", c)
		}
	}
	return nil
}

// SetUpdateJournal attaches (or replaces) the write-ahead hook after
// construction. A durable daemon arms it only after recovery replay,
// so replayed updates are not appended to the log a second time.
func (s *SDC) SetUpdateJournal(fn func(*PUUpdate) error) {
	s.mu.Lock()
	s.journal = fn
	s.mu.Unlock()
}

// rebuildColumn recomputes the stored budgets of block b, which share
// their ciphertexts with the other blocks of b's slot group.
func (s *SDC) rebuildColumn(b geo.BlockID) error {
	return s.rebuildGroup(int(b) / s.codec.Slots())
}

// rebuildGroup recomputes the whole column of slot group g — a fresh
// packed encryption of the group's E slots (padding packs 1, the
// always-positive indicator) with every stored W~ column at any block
// of the group folded in at its slot via the shift scalar 2^(slot*W).
// Only the snapshot and the write-back hold s.mu; the encryptions and
// homomorphic folds run on the worker pool, over the channel rows this
// instance owns. The shifted columns are memoised per stored update
// (storedUpdate), so a pass exponentiates only for updates no earlier
// pass has folded — normally the one that just arrived. If a concurrent
// update registered at any block of the group while the pass computed
// (detected via the column versions), the stale column is discarded and
// recomputed from a fresh snapshot.
func (s *SDC) rebuildGroup(g int) error {
	m := metrics()
	k := s.codec.Slots()
	lo, hi := g*k, (g+1)*k
	if blocks := s.params.Watch.Grid.Blocks(); hi > blocks {
		hi = blocks
	}
	for {
		passStart := time.Now()
		s.mu.Lock()
		vers := make([]uint64, hi-lo)
		for b := lo; b < hi; b++ {
			vers[b-lo] = s.colVer[geo.BlockID(b)]
		}
		var updates []*storedUpdate
		var shifted [][]*paillier.Ciphertext // index-aligned with updates
		for _, u := range s.puUpdates {
			if int(u.Block) >= lo && int(u.Block) < hi {
				updates = append(updates, u)
				shifted = append(shifted, u.shifted)
			}
		}
		s.mu.Unlock()

		for i, u := range updates {
			if shifted[i] != nil {
				continue
			}
			cts, err := s.shiftUpdate(u.PUUpdate, int(u.Block)-lo)
			if err != nil {
				m.colRebuildErr.ObserveSince(passStart)
				return err
			}
			shifted[i] = cts
			s.mu.Lock()
			u.shifted = cts
			s.mu.Unlock()
		}

		col := make([]*paillier.Ciphertext, s.chanHi-s.chanLo)
		err := parallel.For(parallel.Auto(), len(col), func(j int) error {
			c := s.chanLo + j
			vals := make([]*big.Int, k)
			for j := range vals {
				if b := lo + j; b < hi {
					ev, err := s.ePlain.At(c, b)
					if err != nil {
						return err
					}
					vals[j] = big.NewInt(ev)
				} else {
					vals[j] = big.NewInt(1)
				}
			}
			acc, err := s.group.PackEncrypt(s.random, s.codec, vals)
			if err != nil {
				return fmt.Errorf("pisa: pack-encrypt E(%d, group %d): %w", c, g, err)
			}
			for i, u := range updates {
				if acc, err = s.group.Add(acc, shifted[i][j]); err != nil {
					return fmt.Errorf("pisa: fold update from %q: %w", u.PUID, err)
				}
			}
			col[j] = acc
			return nil
		})
		if err != nil {
			m.colRebuildErr.ObserveSince(passStart)
			return err
		}

		s.mu.Lock()
		stale := false
		for b := lo; b < hi; b++ {
			if s.colVer[geo.BlockID(b)] != vers[b-lo] {
				stale = true
				break
			}
		}
		if stale {
			s.mu.Unlock()
			m.colRebuildStale.ObserveSince(passStart)
			m.colRetries.Inc()
			continue
		}
		for j, ct := range col {
			if err := s.nPack.SetGroup(s.chanLo+j, g, ct); err != nil {
				s.mu.Unlock()
				m.colRebuildErr.ObserveSince(passStart)
				return err
			}
		}
		// The whole group ciphertext was rebuilt, so every member
		// block's content is now at its snapshot version.
		for b := lo; b < hi; b++ {
			s.colApplied[geo.BlockID(b)] = vers[b-lo]
		}
		s.mu.Unlock()
		m.colRebuildOK.ObserveSince(passStart)
		return nil
	}
}

// shiftUpdate moves a PU update's owned channel columns into the given
// slot of their packed group: Cts[c]^(2^(slot*W)), one full-width
// exponentiation per channel (slot 0 needs none). Pure function of its
// inputs; the caller memoises the result on the stored update.
func (s *SDC) shiftUpdate(u *PUUpdate, slot int) ([]*paillier.Ciphertext, error) {
	if slot == 0 {
		return u.Cts[s.chanLo:s.chanHi], nil
	}
	defer metrics().updateShift.ObserveSince(time.Now())
	scalar := s.codec.ShiftScalar(slot)
	out := make([]*paillier.Ciphertext, s.chanHi-s.chanLo)
	err := parallel.For(parallel.Auto(), len(out), func(j int) error {
		ct, err := s.group.ScalarMul(scalar, u.Cts[s.chanLo+j])
		if err != nil {
			return fmt.Errorf("pisa: shift update from %q: %w", u.PUID, err)
		}
		out[j] = ct
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// requestCell tracks one request element through the blinded sign
// test: the request ciphertext, the budget snapshot, and the blinding
// tuple blindChunk draws for it. An element is
// one (channel, group) ciphertext carrying k block slots; b is its group.
type requestCell struct {
	c, b int
	f, n *paillier.Ciphertext
	bf   blindFactors
}

// footprintVersLocked returns, per request cell, the current
// applied-content versions of the budget blocks the cell reads — the
// members of its slot group; cells of one group share a slice. Caller
// holds s.mu.
func (s *SDC) footprintVersLocked(cells []requestCell) [][]uint64 {
	k := s.codec.Slots()
	byCoord := make(map[int][]uint64)
	vers := make([][]uint64, len(cells))
	for i := range cells {
		b := cells[i].b
		v, ok := byCoord[b]
		if !ok {
			lo, hi := b*k, min((b+1)*k, s.params.Watch.Grid.Blocks())
			v = make([]uint64, hi-lo)
			for j := range v {
				v[j] = s.colApplied[geo.BlockID(lo+j)]
			}
			byCoord[b] = v
		}
		vers[i] = v
	}
	return vers
}

// cacheKeyFor derives the decision-cache key for a request: the shape
// digest bound to its sharing scope — the requester's declared cache
// domain when the operator registered one, the requester's own SUID
// otherwise. Under the default per-SU scope a dishonest digest can
// only address (and so only poison) the sender's own entries; sharing
// across SUs requires the explicit CacheDomains trust declaration.
func (s *SDC) cacheKeyFor(suid string, digest [32]byte) [32]byte {
	if domain, ok := s.cacheDomain[suid]; ok {
		return scopedCacheKey(cacheScopeDomain, domain, digest)
	}
	return scopedCacheKey(cacheScopePerSU, suid, digest)
}

// cacheCounters are the per-instance mirrors of the obs cache
// counters, maintained lock-free next to each obs increment.
type cacheCounters struct {
	hits, misses, stale, bypass, evicted atomic.Uint64
	admitted                             atomic.Uint64
	cellsKept, cellsRecomputed           atomic.Uint64
	tabled, tableBuilds, tableDrops      atomic.Uint64
}

// CacheCounters is a point-in-time snapshot of one SDC instance's
// decision-cache activity. Admitted counts the Misses that installed an
// entry because their shape had missed before, so Misses − Admitted is
// the one-off share: first misses, which only the first-miss set
// remembers. A Stale lookup whose entry covered the same cells kept the
// cached ciphertexts no PU update had touched (CellsKept)
// and recomputed the others (CellsRecomputed); it is one Stale, never a
// Hit, however much it kept. Tabled counts the servings blinded from
// power tables, in whole or in part (the rest took the general
// exponentiation), TableBuilds and TableDrops the tables built by hits
// and taken back by the byte budget, TableBytes what live entries hold
// now.
type CacheCounters struct {
	Hits, Misses, Stale, Bypass, Evicted uint64
	Admitted                             uint64
	CellsKept, CellsRecomputed           uint64
	Tabled, TableBuilds, TableDrops      uint64
	TableBytes                           int

	// Deprecated: Expired is always 0; cache entries have no age bound.
	// The field exists only because benchmark/deploy.go:55, which a PR
	// may not edit, reads it.
	Expired uint64
}

// CacheStats returns this instance's decision-cache counters since
// construction. Unlike the obs registry, which aggregates every SDC
// in the process, these are per instance — a sharded sdcd reports one
// shutdown-summary line per shard from them.
func (s *SDC) CacheStats() CacheCounters {
	c := CacheCounters{
		Hits:        s.cacheCtr.hits.Load(),
		Misses:      s.cacheCtr.misses.Load(),
		Stale:       s.cacheCtr.stale.Load(),
		Bypass:      s.cacheCtr.bypass.Load(),
		Evicted:     s.cacheCtr.evicted.Load(),
		Admitted:    s.cacheCtr.admitted.Load(),
		Tabled:      s.cacheCtr.tabled.Load(),
		TableBuilds: s.cacheCtr.tableBuilds.Load(),
		TableDrops:  s.cacheCtr.tableDrops.Load(),

		CellsKept:       s.cacheCtr.cellsKept.Load(),
		CellsRecomputed: s.cacheCtr.cellsRecomputed.Load(),
	}
	if s.cache != nil {
		s.mu.Lock()
		c.TableBytes = s.cache.tableBytes
		s.mu.Unlock()
	}
	return c
}

// CachedDecisions reports the live entry count of the encrypted
// decision cache (0 when disabled).
func (s *SDC) CachedDecisions() int {
	if s.cache == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cache.len()
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
// rows this instance owns (DESIGN.md §15): validation, budget snapshot +
// cache lookup, aggregation (eqs. 11-12), blinding (eq. 14), the STP sign
// test, and the eps unblinding (eq. 16). The answer carries the grant
// indicators D~ under the SU key, one per ciphertext of the STP's packed
// answer, each decrypting to 0 exactly when every slot test it covers
// passed and already corrected for this instance's own epsilons. A
// populated request cell outside the window is refused: the request was
// sliced for another window, so the router's partition differs from the
// shard's and some channel row would go untested. A router hands the
// indicators of all its shards to its Licenser, which issues the single
// masked license.
// No serial is consumed and nothing is issued, so a retried or
// failed-over call is idempotent. The SDC cannot tell from anything it
// computes whether the request was granted.
//
// The critical section is the snapshot only: the per-cell homomorphic
// work (eqs. 11, 12, 14), the STP round-trip, and the unblinding
// (eq. 16) all run without holding s.mu, so concurrent SU requests
// genuinely overlap.
//
// Every stage reports its latency into the shared obs registry
// (pisa_sdc_request_stage_seconds; see metrics.go for the stage
// vocabulary), which is how a live deployment sees the paper's §VI
// per-stage budget instead of re-running a benchmark.
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
	suKey, err := s.suKeys.Get(req.SUID)
	if err != nil {
		return nil, err
	}

	// Snapshot phase (the only part under s.mu): collect the budget
	// entries for every populated request cell.
	stageStart := time.Now()
	s.mu.Lock()
	cells := make([]requestCell, 0, req.Ciphertexts())
	// An SU populates every channel row of the groups it ships, so a
	// request sliced for another window populates rows outside this one:
	// its router partitions differently and leaves some rows untested.
	err = req.FP.ForEachGroup(func(c, g int, f *paillier.Ciphertext) error {
		if c < s.chanLo || c >= s.chanHi {
			return fmt.Errorf("pisa: request row %d lies outside the shard's window [%d, %d): the router's partition differs from the shard's",
				c, s.chanLo, s.chanHi)
		}
		n, err := s.nPack.GroupAt(c, g)
		if err != nil {
			return err
		}
		cells = append(cells, requestCell{c: c, b: g, f: f, n: n})
		return nil
	})
	// Cache lookup happens in the same critical section as the budget
	// snapshot: the colApplied values read here identify exactly the
	// content the `n` pointers above reference, so a cached ciphertext
	// whose versions match equals what the recompute below would produce
	// for its cell. Entries are addressed by the digest bound to the
	// requester's sharing scope (cacheKeyFor), never by the raw digest
	// alone. A miss installs its column only on its shape's second miss
	// (decisionCache.admit).
	var (
		lookedUp  bool                   // the request carries a digest the cache looked up
		cached    *cacheEntry            // aligned entry: serves every cell not in recompute
		recompute []int                  // cells to aggregate, all of them without cached
		cachePut  *cacheEntry            // what this request will install
		admitted  bool                   // cachePut is a miss's, admitted
		tabs      []*paillier.PowerTable // cached's tables as of this lookup
		buildTabs bool                   // this request tables what cached lacks
	)
	if err == nil && s.cache != nil && len(cells) > 0 {
		switch {
		case req.ShapeDigest == [32]byte{}:
			m.cacheBypass.Inc()
			s.cacheCtr.bypass.Add(1)
		default:
			lookedUp = true
			key := s.cacheKeyFor(req.SUID, req.ShapeDigest)
			vers := s.footprintVersLocked(cells)
			e := s.cache.get(key)
			install := true // a misaligned entry is replaced
			switch {
			case e == nil:
				m.cacheMisses.Inc()
				s.cacheCtr.misses.Add(1)
				admitted = s.cache.admit(key)
				install = admitted
			case !e.aligned(cells):
				// A digest collision, or a scope member reusing another
				// shape's digest: nothing of the entry lines up with the
				// cells the blinding stage will walk.
				s.cache.remove(key)
				m.cacheStale.Inc()
				s.cacheCtr.stale.Add(1)
			default:
				cached, tabs = e, e.tabs
				recompute = e.moved(vers)
				install = len(recompute) > 0
				switch {
				case len(recompute) > 0:
					// Stale in these cells only. The entry stays where it
					// is until the refreshed one replaces it.
					m.cacheStale.Inc()
					s.cacheCtr.stale.Add(1)
					kept := uint64(len(cells) - len(recompute))
					m.cacheCellsKept.Add(kept)
					s.cacheCtr.cellsKept.Add(kept)
					m.cacheCellsRecomputed.Add(uint64(len(recompute)))
					s.cacheCtr.cellsRecomputed.Add(uint64(len(recompute)))
				case e.wantsTables():
					e.tabling, buildTabs = true, true
				}
			}
			if install {
				coords := make([]cellCoord, len(cells))
				for i := range cells {
					coords[i] = cellCoord{c: cells[i].c, b: cells[i].b}
				}
				cachePut = &cacheEntry{key: key, coords: coords, vers: vers}
			}
		}
	}
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	m.stage["snapshot"].ObserveSince(stageStart)
	if len(cells) == 0 {
		// Every populated cell belongs to another shard's window:
		// nothing to aggregate, no STP round trip, no indicator.
		return &ShardAnswer{}, nil
	}

	// Steps 3-4: R~ = X (x) F~, I~ = N~ (-) R~ (eqs. 11-12) — the
	// budget aggregation, for the cells the cache does not answer. A
	// cached I~ is used as it is, read-only: it never leaves the SDC, and
	// the blinding below multiplies it by a tuple's E(-eps*beta), whose
	// own fresh nonce is all a re-randomisation would add (DESIGN.md §14).
	stageStart = time.Now()
	is := make([]*paillier.Ciphertext, len(cells))
	if cached != nil {
		copy(is, cached.is)
	} else {
		recompute = make([]int, len(cells))
		for k := range recompute {
			recompute[k] = k
		}
	}
	if len(recompute) == 0 {
		m.cacheHits.Inc()
		s.cacheCtr.hits.Add(1)
		m.cacheAggHit.ObserveSince(stageStart)
	} else {
		if tabs != nil {
			// The tables of the cells about to be recomputed table their
			// old content.
			tabs = slices.Clone(tabs)
			for _, k := range recompute {
				tabs[k] = nil
			}
		}
		if err := s.aggregate(is, cells, recompute); err != nil {
			return nil, err
		}
		if cachePut != nil {
			cachePut.tabs = tabs
			s.installEntry(cachePut, is, recompute)
			if admitted {
				m.cacheAdmits.Inc()
				s.cacheCtr.admitted.Add(1)
			}
		}
		// Only digest-carrying recomputes feed the path="miss" histogram,
		// installed or not: bypass (zero-digest) requests recompute too,
		// but folding them in would skew the hit-vs-miss cost comparison
		// whenever opt-out/legacy SUs share the deployment.
		if lookedUp {
			m.cacheAggMiss.ObserveSince(stageStart)
		}
	}
	m.stage["aggregate"].ObserveSince(stageStart)

	// Step 5: blind into V~ (eq. 14), cell by cell from a power table
	// where the cached I~ has one — a hit builds those its entry lacks
	// here, outside the lock — and with the general exponentiation where
	// not: every cell of a miss, the recomputed cells of a partly stale
	// entry. The two agree bit for bit, so which one ran shows in the
	// counters and nowhere else.
	stageStart = time.Now()
	if buildTabs {
		tabs = s.tableEntry(cached, tabs)
	}
	if slices.ContainsFunc(tabs, func(t *paillier.PowerTable) bool { return t != nil }) {
		m.blindTable.Inc()
		s.cacheCtr.tabled.Add(1)
	} else {
		m.blindPlain.Inc()
	}
	vs := make([]*paillier.Ciphertext, len(cells))
	err = parallel.ForChunks(parallel.Auto(), len(cells), func(lo, hi int) error {
		return s.blindChunk(vs, is, tabs, cells, lo, hi)
	})
	if err != nil {
		return nil, err
	}
	m.stage["blind"].ObserveSince(stageStart)

	// Steps 6-8 happen at the STP. The request declares the geometry of
	// its elements, so the STP runs the sign test slot-wise, and the room
	// the answer may take in the SU's key, which with the element bound
	// fixes the answer's layout on both sides.
	stageStart = time.Now()
	slotsPer := s.codec.Slots()
	signReq := &SignRequest{
		SUID:       req.SUID,
		V:          vs,
		Slots:      slotsPer,
		SlotBits:   s.codec.SlotBits(),
		AnswerBits: s.params.AnswerBits(suKey.Bits()),
	}
	answer, err := answerCodec(slotsPer, signReq.AnswerBits)
	if err != nil {
		return nil, fmt.Errorf("pisa: SU %q: %w", req.SUID, err)
	}
	signResp, err := s.stp.ConvertSigns(signReq)
	if err != nil {
		return nil, fmt.Errorf("pisa: STP conversion: %w", err)
	}
	m.stage["stp_convert"].ObserveSince(stageStart)

	// Step 9, the unblinding (eq. 16): one plaintext addition per answer
	// ciphertext.
	stageStart = time.Now()
	ds, err := unblindAnswer(suKey, answer, slotsPer, signResp.X, cells)
	if err != nil {
		return nil, err
	}
	m.stage["unblind"].ObserveSince(stageStart)
	return &ShardAnswer{D: ds}, nil
}

// aggregate computes I~ = N~ (-) X (x) F~ (eqs. 11-12) into is[k] for
// the cells k listed in todo, on the worker pool, from the request
// ciphertext and the budget snapshot each cell carries.
func (s *SDC) aggregate(is []*paillier.Ciphertext, cells []requestCell, todo []int) error {
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

// installEntry completes the entry a request's lookup prepared — key,
// coordinates, versions, and the tables of the ciphertexts it keeps —
// with its column and puts it in the cache. is is the column the request
// serves: the cells listed in computed it aggregated itself, the rest it
// took from the entry its lookup found. The versions in e were read
// under the same lock as the budget snapshot the computed cells come
// from — a rebuild that committed since then changed colApplied and
// simply makes the cells it touched stale at their next lookup. Nothing
// the SDC emits is linkable to the cached copy, because every serving is
// blinded under a fresh tuple first.
func (s *SDC) installEntry(e *cacheEntry, is []*paillier.Ciphertext, computed []int) {
	// Computed cells are stored as copies packed into one allocation of
	// their own — an entry lives long enough for the multiplication scratch
	// a modular product keeps, or a clone's padding, to be most of its
	// memory. Kept cells stay the objects the previous entry held, so their
	// tables stay theirs; the previous entry's allocation lives on while any
	// of them does, and a refresh of the same cells again drops the last
	// refresh's allocation, not that one.
	fresh := make([]*paillier.Ciphertext, len(computed))
	for j, k := range computed {
		fresh[j] = is[k]
	}
	e.is = slices.Clone(is)
	for j, ct := range paillier.CloneCompact(fresh) {
		e.is[computed[j]] = ct
	}
	m := metrics()
	s.mu.Lock()
	evicted, dropped := s.cache.put(e)
	s.mu.Unlock()
	m.cacheEvicts.Add(uint64(evicted))
	s.cacheCtr.evicted.Add(uint64(evicted))
	m.cacheTableDrops.Add(uint64(dropped))
	s.cacheCtr.tableDrops.Add(uint64(dropped))
}

// newBlindFactors draws one (alpha, E(-eps*beta), epsilon) tuple of
// eq. 14. Safe for concurrent use (the randomness source is
// shared-reader wrapped at construction).
//
// One tuple blinds one group ciphertext: alpha and epsilon are shared
// across the group's slots (alpha*I keeps every slot inside its width;
// the shared epsilon leaks only the group's relative sign pattern to
// the STP, see DESIGN.md §12), while beta is drawn fresh per slot and
// the tuple's betaEnc is a packed encryption of the k betas.
func (s *SDC) newBlindFactors() (blindFactors, error) {
	alphaLo := new(big.Int).Lsh(big.NewInt(1), uint(s.params.AlphaBits-1))
	alphaHi := new(big.Int).Lsh(big.NewInt(1), uint(s.params.AlphaBits))
	betaHi := new(big.Int).Lsh(big.NewInt(1), uint(s.params.BetaBits))
	alpha, err := paillier.RandomInRange(s.random, alphaLo, alphaHi)
	if err != nil {
		return blindFactors{}, err
	}
	epsBit := make([]byte, 1)
	if _, err := io.ReadFull(s.random, epsBit); err != nil {
		return blindFactors{}, fmt.Errorf("draw epsilon: %w", err)
	}
	eps := int64(1)
	if epsBit[0]&1 == 1 {
		eps = -1
	}
	// Each beta is drawn in [1, 2^BetaBits) and stored as -eps*beta, the
	// plaintext blindChunk adds to eps*alpha*I.
	betas := make([]*big.Int, s.codec.Slots())
	for j := range betas {
		if betas[j], err = paillier.RandomInRange(s.random, big.NewInt(1), betaHi); err != nil {
			return blindFactors{}, err
		}
		if eps > 0 {
			betas[j].Neg(betas[j])
		}
	}
	betaEnc, err := s.group.PackEncrypt(s.random, s.betaCodec, betas)
	if err != nil {
		return blindFactors{}, err
	}
	return blindFactors{alpha: alpha, betaEnc: betaEnc, eps: eps}, nil
}

// Close empties the decision cache and the SU-key cache and gives their
// entries and power-table bytes back to the process-wide gauges, so a
// retired SDC stops counting in pisa_sdc_cache_entries,
// pisa_sdc_cache_table_bytes and pisa_sdc_sukey_cache_entries. Request
// and update processing keep working after Close, refilling the caches.
// Safe to call more than once.
func (s *SDC) Close() {
	s.suKeys.clear()
	if s.cache == nil {
		return
	}
	s.mu.Lock()
	s.cache.clear()
	s.mu.Unlock()
}

// tableEntry builds, on the worker pool, a power table for every cell of
// a cache entry's column that has none in have — the entry's tables as
// of the caller's lookup — and installs the completed set. ProcessShard
// calls it outside s.mu, from the one hit whose lookup claimed the build.
// The returned tables serve that request whatever became of the entry
// meanwhile; when a cell cannot be tabled they are have, and the plain
// path, whose error names the cell, takes over.
func (s *SDC) tableEntry(e *cacheEntry, have []*paillier.PowerTable) []*paillier.PowerTable {
	tabs := make([]*paillier.PowerTable, len(e.is))
	copy(tabs, have)
	var missing []int
	for k, t := range tabs {
		if t == nil {
			missing = append(missing, k)
		}
	}
	err := parallel.For(parallel.Auto(), len(missing), func(i int) (err error) {
		k := missing[i]
		tabs[k], err = s.group.PowerTable(e.is[k], s.params.AlphaBits)
		return err
	})
	if err != nil {
		return have
	}
	s.mu.Lock()
	dropped := uint64(s.cache.setTables(e, tabs))
	s.mu.Unlock()
	m := metrics()
	m.cacheTableBuilds.Add(uint64(len(missing)))
	s.cacheCtr.tableBuilds.Add(uint64(len(missing)))
	m.cacheTableDrops.Add(dropped)
	s.cacheCtr.tableDrops.Add(dropped)
	return tabs
}

// blindChunk applies eq. 14 to the cells [lo, hi): vs[k] becomes the
// blinding of the encrypted budget slack is[k] under a tuple drawn here
// for cells[k] (one packed encryption each). One-time alpha > beta > 0
// hide the magnitude, epsilon in {-1, +1} hides the sign from the STP.
// The tuple carries E(-eps*beta), so V~ = eps*(alpha*I - beta) is
// I~^(eps*alpha) times that: I~^alpha from tabs[k] where the cell has a
// table and by the general exponentiation where not, inverted where
// eps = -1 — one modular inversion for the chunk — and multiplied by
// the beta factor.
// Touches only its own range of vs and cells — callable concurrently on
// disjoint ranges.
func (s *SDC) blindChunk(vs, is []*paillier.Ciphertext, tabs []*paillier.PowerTable, cells []requestCell, lo, hi int) error {
	var flipped []int // the chunk's cells with eps = -1
	for k := lo; k < hi; k++ {
		cell := &cells[k]
		var err error
		if cell.bf, err = s.newBlindFactors(); err != nil {
			return fmt.Errorf("blind (%d, %d): %w", cell.c, cell.b, err)
		}
		if tabs != nil && tabs[k] != nil {
			vs[k], err = tabs[k].ScalarMul(cell.bf.alpha)
		} else {
			vs[k], err = s.group.ScalarMul(cell.bf.alpha, is[k])
		}
		if err != nil {
			return fmt.Errorf("blind (%d, %d): %w", cell.c, cell.b, err)
		}
		if cell.bf.eps < 0 {
			flipped = append(flipped, k)
		}
	}
	powers := make([]*paillier.Ciphertext, len(flipped))
	for j, k := range flipped {
		powers[j] = vs[k]
	}
	negs, err := s.group.NegBatch(powers)
	if err != nil {
		cell := &cells[flipped[slices.Index(negs, nil)]]
		return fmt.Errorf("blind (%d, %d): %w", cell.c, cell.b, paillier.ErrInvalidCiphertext)
	}
	for j, k := range flipped {
		vs[k] = negs[j]
	}
	for k := lo; k < hi; k++ {
		cell := &cells[k]
		if vs[k], err = s.group.Add(vs[k], cell.bf.betaEnc); err != nil {
			return fmt.Errorf("blind (%d, %d): %w", cell.c, cell.b, err)
		}
	}
	return nil
}
