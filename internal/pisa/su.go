package pisa

import (
	"crypto/rand"
	"crypto/rsa"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sort"
	"time"

	"pisa/internal/dsig"
	"pisa/internal/geo"
	"pisa/internal/matrix"
	"pisa/internal/paillier"
	"pisa/internal/parallel"
	"pisa/internal/watch"
)

// SU is a secondary user: it prepares encrypted transmission requests
// under the group key and opens license responses with its own key.
type SU struct {
	id      string
	block   geo.BlockID
	key     *paillier.PrivateKey
	group   *paillier.PublicKey
	planner *watch.Planner
	random  io.Reader
	// codec is the deployment's slot codec (Params.SlotCodec): requests
	// ship as packed matrices, codec.Slots() block slots per ciphertext.
	codec *paillier.SlotCodec
	// nonces is the precomputed r^n pool for RerandomizeRequest (§VI-A's
	// ~11 s reuse path versus ~221 s fresh preparation).
	nonces *paillier.NoncePool
}

// NewSU creates a secondary user at the given block with a fresh
// Paillier key pair of params.PaillierBits. The planner carries the
// public deployment data (grid, path loss, d^c).
func NewSU(random io.Reader, id string, block geo.BlockID, params Params, planner *watch.Planner, group *paillier.PublicKey) (*SU, error) {
	if random == nil {
		random = rand.Reader
	}
	if id == "" {
		return nil, fmt.Errorf("pisa: SU requires an id")
	}
	if planner == nil || group == nil {
		return nil, fmt.Errorf("pisa: SU requires planner and group key")
	}
	if !planner.Params().Grid.Valid(block) {
		return nil, fmt.Errorf("pisa: SU block %d invalid", block)
	}
	key, err := paillier.GenerateKey(random, params.PaillierBits)
	if err != nil {
		return nil, fmt.Errorf("pisa: generate SU key: %w", err)
	}
	// Worker goroutines and background refills share the randomness
	// source (SharedReader passes crypto/rand through unchanged).
	random = paillier.SharedReader(random)
	// Request encryption fans out over parallel.Auto() workers; on an
	// in-process group key another role already prepared this only reads.
	group.Prepare()
	codec, err := params.SlotCodec()
	if err != nil {
		return nil, err
	}
	if err := codec.CheckKey(group); err != nil {
		return nil, fmt.Errorf("pisa: packing: %w", err)
	}
	return &SU{
		id:      id,
		block:   block,
		key:     key,
		group:   group,
		planner: planner,
		random:  random,
		codec:   codec,
		nonces:  paillier.NewNoncePool(group, random),
	}, nil
}

// ID returns the SU identifier.
func (u *SU) ID() string { return u.id }

// PublicKey returns pk_j for registration with the STP.
func (u *SU) PublicKey() *paillier.PublicKey { return u.key.Public() }

// MoveTo relocates the SU to another grid block. The key pair, STP
// registration, and nonce pool survive the move — a roaming fleet
// member does not re-register — but previously prepared requests
// still encode the old block; the next PrepareRequest picks up the
// new location. Not safe to call concurrently with request
// preparation.
func (u *SU) MoveTo(block geo.BlockID) error {
	if !u.planner.Params().Grid.Valid(block) {
		return fmt.Errorf("pisa: SU block %d invalid", block)
	}
	u.block = block
	return nil
}

// PrepareRequest builds and encrypts the F matrix (Figure 5 steps
// 1-2). eirpUnits maps channel -> requested EIRP in integer units.
// The disclosure controls the privacy/time trade-off of §VI-A: every
// (channel, block) cell inside it is shipped — including encryptions
// of zero — so the SDC learns only that the SU is somewhere inside
// the disclosed region. An empty disclosure means the full grid
// (maximum privacy). The SU's own block must lie inside the
// disclosure, and every F value outside it must be zero, otherwise
// interference constraints would be silently dropped.
//
// The |disclosure| x C encryptions dominate the paper's ~221 s fresh
// preparation cost; they fan out over parallel.Auto() workers.
func (u *SU) PrepareRequest(eirpUnits map[int]int64, disclosure geo.Disclosure) (*TransmissionRequest, error) {
	p := u.planner.Params()
	if len(disclosure.Blocks) == 0 {
		disclosure = p.Grid.FullDisclosure()
	}
	if !disclosure.Contains(u.block) {
		return nil, fmt.Errorf("pisa: disclosure does not contain the SU's block %d", u.block)
	}
	f, err := u.planner.ComputeF(watch.Request{Block: u.block, EIRPUnits: eirpUnits})
	if err != nil {
		return nil, err
	}
	// Interference the SU would cause outside the disclosed region
	// cannot be checked by the SDC; refuse to under-report.
	err = f.ForEach(func(c, b int, v int64) error {
		if v != 0 && !disclosure.Contains(geo.BlockID(b)) {
			return fmt.Errorf("pisa: F(%d, %d) = %d falls outside the disclosure; widen the disclosed region", c, b, v)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return u.preparePacked(f, disclosure)
}

// preparePacked builds the packed transmission request: one ciphertext
// per (channel, slot group) for every group touched by the disclosure.
// Disclosure granularity rounds up to whole groups — the effective
// disclosed region is the union of the k-block groups covering the
// requested blocks, which only widens the region (never narrows it),
// so PrepareRequest's per-block footprint check still guarantees no
// interference constraint is dropped. Out-of-disclosure slots inside a
// shipped group and padding slots past the grid encrypt zero.
func (u *SU) preparePacked(f *matrix.Int, disclosure geo.Disclosure) (*TransmissionRequest, error) {
	p := u.planner.Params()
	blocks := p.Grid.Blocks()
	k := u.codec.Slots()
	fp, err := matrix.NewPacked(u.group, u.codec, p.Channels, blocks)
	if err != nil {
		return nil, err
	}
	// Enumerate the shipped groups in ascending order, then expand
	// group-major/channel-minor into one work list so a serial run
	// (GOMAXPROCS=1) draws randomness in the identical sequence as any
	// worker count.
	seen := make(map[int]bool, len(disclosure.Blocks))
	groups := make([]int, 0, len(disclosure.Blocks))
	for _, b := range disclosure.Blocks {
		if g := int(b) / k; !seen[g] {
			seen[g] = true
			groups = append(groups, g)
		}
	}
	sort.Ints(groups)
	type groupRef struct {
		c, g int
	}
	work := make([]groupRef, 0, len(groups)*p.Channels)
	for _, g := range groups {
		for c := 0; c < p.Channels; c++ {
			work = append(work, groupRef{c: c, g: g})
		}
	}
	cts := make([]*paillier.Ciphertext, len(work))
	err = parallel.For(parallel.Auto(), len(work), func(i int) error {
		c, g := work[i].c, work[i].g
		vals := make([]*big.Int, k)
		for s := 0; s < k; s++ {
			if b := g*k + s; b < blocks {
				v, err := f.At(c, b)
				if err != nil {
					return err
				}
				vals[s] = big.NewInt(v)
			} else {
				vals[s] = big.NewInt(0)
			}
		}
		ct, err := u.group.PackEncrypt(u.random, u.codec, vals)
		if err != nil {
			return fmt.Errorf("pisa: pack-encrypt F(%d, group %d): %w", c, g, err)
		}
		cts[i] = ct
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, ct := range cts {
		if err := fp.SetGroup(work[i].c, work[i].g, ct); err != nil {
			return nil, err
		}
	}
	return &TransmissionRequest{
		SUID:       u.id,
		FP:         fp,
		Disclosure: append([]geo.BlockID(nil), disclosure.Blocks...),
	}, nil
}

// PrecomputeNonces extends the SU's offline pool of re-randomisation
// factors. Each pooled nonce turns one ciphertext refresh into a single
// modular multiplication instead of a fixed-base exponentiation. Only
// RerandomizeRequest draws from the pool (the paper's refresh, 11 s
// against 221 s for a fresh preparation); RefreshRequest re-sends a
// request as it is and draws nothing.
func (u *SU) PrecomputeNonces(count int) error {
	if count < 0 {
		return fmt.Errorf("pisa: negative nonce count %d", count)
	}
	if err := u.nonces.Fill(count); err != nil {
		return fmt.Errorf("pisa: precompute nonce: %w", err)
	}
	return nil
}

// EnableNonceAutoRefill arms (target > 0) or disarms (target == 0)
// background refilling of the nonce pool: whenever a refresh leaves
// fewer than target/4 (at least 1) nonces pooled, a background
// goroutine tops the pool back up to target, keeping sustained
// refresh traffic on the cheap path without an operator calling
// PrecomputeNonces between requests.
func (u *SU) EnableNonceAutoRefill(target int) error {
	if target < 0 {
		return fmt.Errorf("pisa: negative nonce target %d", target)
	}
	return u.nonces.SetAutoRefill(target)
}

// Close disarms the nonce pool's background refills and waits for any
// in-flight refill goroutine to exit. The SU remains usable (refreshes
// fall back to online nonce generation); Close only guarantees no
// goroutine outlives an SU the caller is done with.
func (u *SU) Close() { u.nonces.Close() }

// RefreshRequest readies a previously prepared request for another
// submission: a copy that shares the read-only matrix, no nonce drawn,
// no pool traffic. The SUID in the message already says "same SU" to the
// SDC and to anyone on the wire, and a byte-identical resend adds "same
// request": the trade for the SDC's decision cache, which serves a
// resend from the column its first sendings computed. The STP only ever
// sees F~ folded into a V~ whose E(-eps*beta) factor carries a fresh
// nonce on every serving (DESIGN.md §10, ledger row 1).
func (u *SU) RefreshRequest(req *TransmissionRequest) (*TransmissionRequest, error) {
	if err := u.owns(req); err != nil {
		return nil, err
	}
	resend := *req
	resend.Disclosure = append([]geo.BlockID(nil), req.Disclosure...)
	return &resend, nil
}

// owns checks that req is a prepared request of this SU.
func (u *SU) owns(req *TransmissionRequest) error {
	if req == nil || req.FP == nil {
		return fmt.Errorf("pisa: nil request")
	}
	if req.SUID != u.id {
		return fmt.Errorf("pisa: request belongs to %q, not %q", req.SUID, u.id)
	}
	return nil
}

// RerandomizeRequest re-randomises every ciphertext of a previously
// prepared request, so that two submissions of the same operating
// parameters are unlinkable by their bytes: the cheap reuse path the
// paper reports at about 11 s versus 221 s for a fresh preparation
// (§VI-A). Precomputed nonces from PrecomputeNonces are consumed one per
// ciphertext; when the pool runs dry the refresh falls back to drawing
// them online. The result has bytes the SDC has never seen, so its
// decision cache can only miss on it.
func (u *SU) RerandomizeRequest(req *TransmissionRequest) (*TransmissionRequest, error) {
	if err := u.owns(req); err != nil {
		return nil, err
	}
	fresh, err := matrix.NewPacked(u.group, req.FP.Codec(), req.FP.Channels(), req.FP.Blocks())
	if err != nil {
		return nil, err
	}
	type groupRef struct {
		c, g int
		ct   *paillier.Ciphertext
	}
	var work []groupRef
	err = req.FP.ForEachGroup(func(c, g int, ct *paillier.Ciphertext) error {
		work = append(work, groupRef{c: c, g: g, ct: ct})
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]*paillier.Ciphertext, len(work))
	err = parallel.For(parallel.Auto(), len(work), func(k int) error {
		nonce, err := u.nonces.Get()
		if err != nil {
			return fmt.Errorf("pisa: refresh F(%d, group %d): %w", work[k].c, work[k].g, err)
		}
		rr, err := u.group.RerandomizeWith(work[k].ct, nonce)
		if err != nil {
			return fmt.Errorf("pisa: refresh F(%d, group %d): %w", work[k].c, work[k].g, err)
		}
		out[k] = rr
		return nil
	})
	if err != nil {
		return nil, err
	}
	for k, rr := range out {
		if err := fresh.SetGroup(work[k].c, work[k].g, rr); err != nil {
			return nil, err
		}
	}
	return &TransmissionRequest{
		SUID:       req.SUID,
		FP:         fresh,
		Disclosure: append([]geo.BlockID(nil), req.Disclosure...),
	}, nil
}

// Grant is the SU-side outcome of a transmission request.
type Grant struct {
	// Granted reports whether a valid license signature was
	// recovered.
	Granted bool
	// License is the permission body (meaningful when Granted).
	License dsig.License
	// Signature is the recovered valid signature (nil when denied).
	Signature []byte
}

// OpenResponse decrypts the masked signature (Figure 5 step 11 on the
// SU side) and checks it against the license body under the SDC's
// verification key. A masked (denied) value fails signature
// verification; that is reported as Granted=false, not as an error.
// The request the response answers is needed to confirm the license
// binds to the parameters this SU actually submitted. A license whose
// ExpiresUnix the SU's clock has passed is an error, granted or not;
// IssuedUnix is not checked, so an SDC clock a little ahead of the
// SU's costs no grant.
func (u *SU) OpenResponse(resp *Response, req *TransmissionRequest, sdcKey *rsa.PublicKey) (Grant, error) {
	if resp == nil || resp.MaskedSig == nil {
		return Grant{}, fmt.Errorf("pisa: nil response")
	}
	if resp.License.SUID != u.id {
		return Grant{}, fmt.Errorf("pisa: license issued to %q, not %q", resp.License.SUID, u.id)
	}
	if expires := resp.License.ExpiresUnix; time.Now().Unix() > expires {
		return Grant{}, fmt.Errorf("pisa: license %d expired at %s",
			resp.License.Serial, time.Unix(expires, 0).UTC().Format(time.RFC3339))
	}
	if req != nil {
		digest, err := req.Digest()
		if err != nil {
			return Grant{}, err
		}
		if digest != resp.License.RequestDigest {
			return Grant{}, fmt.Errorf("pisa: license does not bind to the submitted request")
		}
	}
	val, err := u.key.Decrypt(resp.MaskedSig)
	if err != nil {
		return Grant{}, fmt.Errorf("pisa: decrypt response: %w", err)
	}
	if err := dsig.VerifyInt(sdcKey, &resp.License, val); err != nil {
		if errors.Is(err, dsig.ErrBadSignature) {
			return Grant{Granted: false, License: resp.License}, nil
		}
		return Grant{}, err
	}
	sig, err := dsig.IntToSignature(val, (sdcKey.N.BitLen()+7)/8)
	if err != nil {
		return Grant{}, err
	}
	return Grant{Granted: true, License: resp.License, Signature: sig}, nil
}
