// Package pisa implements the paper's primary contribution: the
// privacy-preserving spectrum access protocol (§IV-B). Four roles
// cooperate:
//
//   - PU (TV receiver): encrypts channel-reception updates under the
//     group key (Figure 4).
//   - SU (secondary WiFi user): encrypts transmission requests under
//     the group key and decrypts license responses with its own key
//     (Figure 5).
//   - SDC (spectrum database controller): maintains the encrypted
//     interference budget (eqs. 8-10) and processes requests purely
//     homomorphically (eqs. 11-17), learning nothing about PU
//     channels, SU locations, or decisions.
//   - STP (semi-trusted third party): holds the group secret key and
//     performs the blinded sign test plus key conversion (eq. 15).
//
// The plaintext semantics are defined by internal/watch; this package
// guarantees the same grant/deny decisions without revealing the
// private inputs to the SDC or the decisions to anyone but the SU.
package pisa

import (
	"fmt"

	"pisa/internal/dsig"
	"pisa/internal/paillier"
	"pisa/internal/watch"
)

// Params configures a PISA deployment: the underlying WATCH radio
// parameters plus the cryptographic budgets.
type Params struct {
	// Watch carries the radio/allocation configuration shared with
	// the plaintext baseline.
	Watch watch.Params

	// PaillierBits sizes the group and SU moduli. The paper uses
	// 2048 (112-bit security per NIST SP 800-57); tests use smaller.
	PaillierBits int

	// PlaintextBits bounds |I(c, i)| — the paper's 60-bit integer
	// representation (Table I). Validation checks the radio
	// quantisation cannot overflow it.
	PlaintextBits int

	// AlphaBits and BetaBits size the multiplicative and additive
	// blinding factors of eq. 14. Alpha is drawn from
	// [2^(AlphaBits-1), 2^AlphaBits), beta from [1, 2^BetaBits), so
	// BetaBits <= AlphaBits-1 guarantees alpha > beta.
	AlphaBits int
	BetaBits  int

	// EtaBits sizes the one-time license mask of eq. 17.
	EtaBits int

	// SignerBits sizes the RSA license-signing key; it must leave
	// the signature integer inside the Paillier plaintext domain
	// (<= dsig.MaxSignerBits(PaillierBits)).
	SignerBits int

	// Deprecated: Parallelism is inert. Every crypto kernel fans out over
	// parallel.Auto() (GOMAXPROCS) workers, read at the call, so
	// GOMAXPROCS=1 is the serial, paper-like configuration. The field
	// exists only because the frozen benchmark (benchmark/bench_test.go)
	// names it in a literal; nothing reads it.
	Parallelism int

	// Deprecated: FastExp, FastExpWindow and ShortExpBits are inert.
	// Every key tables its nonce base on its first nonce, at the one
	// geometry internal/paillier fixes; there is nothing to switch on or
	// size. The fields exist only because the frozen benchmark
	// (benchmark/deploy.go, benchmark/bench_test.go) names them; nothing
	// reads them.
	FastExp bool
	// Deprecated: inert, see FastExp.
	FastExpWindow int
	// Deprecated: inert, see FastExp.
	ShortExpBits int

	// Deprecated: Packing is inert. Ciphertexts are always slot-packed
	// (SlotCodec); the one-cell-per-ciphertext layout it used to select
	// when false is the same pipeline at PackSlots() == 1. The field
	// exists only because benchmark/bench_test.go:35, which a PR may not
	// edit, names it in a literal; nothing reads it.
	Packing bool

	// CacheEntries bounds the SDC's encrypted-decision cache: the
	// aggregate output Ĩ of eqs. 11-12, keyed on the request's shape
	// digest and invalidated, ciphertext by ciphertext, against per-block
	// column versions. It also sizes the first-miss set: a shape's column
	// is installed on its second miss, if its first is among the last
	// CacheEntries first misses. An entry is read-only; each hit blinds it
	// under a fresh (alpha, beta, eps) tuple, which is what makes two hits
	// unlinkable, and from an entry's first hit on the blinding
	// exponentiates from per-ciphertext power tables. Zero disables the
	// cache (every request recomputes, the paper's Figure 5 cost).
	CacheEntries int

	// CacheDomains declares trust domains for cross-SU cache sharing:
	// domain name -> member SUIDs. Cache entries are scoped — by
	// default each SU only ever hits entries it filled itself, so a
	// dishonest ShapeDigest is strictly self-inflicted. SUs listed in
	// one domain share entries with each other instead: that is what
	// makes fleet concentration pay, but it trusts every member not to
	// ship a mismatched digest/F pair (the SDC cannot check the digest
	// against the encrypted F), so a dishonest member could poison its
	// domain's decisions. Declare a domain only for SUs under one
	// administration (e.g. one operator's smart-TV fleet). An SUID may
	// appear in at most one domain.
	CacheDomains map[string][]string
}

// DefaultParams returns the paper's Table I configuration on top of
// the given WATCH parameters: 2048-bit Paillier, 60-bit plaintexts,
// and 100-bit multiplicative blinding (the magnitude the paper's
// Table II "100-bit constant" row and its 219 s processing figure
// imply). Raise AlphaBits for stronger magnitude hiding at the cost
// of slower scalar multiplications; see DESIGN.md on what the STP can
// infer from blinded magnitudes.
func DefaultParams(w watch.Params) Params {
	return Params{
		Watch:         w,
		PaillierBits:  2048,
		PlaintextBits: 60,
		AlphaBits:     100,
		BetaBits:      80,
		EtaBits:       256,
		SignerBits:    dsig.MaxSignerBits(2048),
		CacheEntries:  1024, // encrypted-decision cache (0 = recompute every request)
	}
}

// TestParams returns a configuration with small moduli for fast tests
// and simulations. Security is nominal; the arithmetic constraints
// all still hold.
func TestParams(w watch.Params) Params {
	return Params{
		Watch:         w,
		PaillierBits:  768,
		PlaintextBits: 60,
		AlphaBits:     128,
		BetaBits:      64,
		EtaBits:       64,
		SignerBits:    512,
		CacheEntries:  256,
	}
}

// SlotBits returns the per-slot width of the ciphertext layout: the
// payload (PlaintextBits), the multiplicative blinding growth
// (AlphaBits), one bit of additive-blinding headroom and one
// bias/sign bit. With this width the whole eq. 11-14 pipeline —
// budget sums, the deltaX scalar, alpha/beta blinding — stays inside
// one slot (the additions of eq. 12-13 keep |I| within PlaintextBits
// by the watch admission bounds; |alpha*I - beta| then has at most
// AlphaBits+PlaintextBits+1 bits).
func (p Params) SlotBits() int {
	return p.AlphaBits + p.PlaintextBits + 2
}

// PackSlots returns how many block cells share one ciphertext at
// these parameters: the largest k with k*SlotBits <= PaillierBits-2
// (the packed plaintext must fit the centred signed domain), chosen to
// fill the modulus. Budgets, requests, WAL snapshots and the STP sign
// test are all ~k-fold smaller than at one cell per ciphertext, the
// paper's layout, which is what an AlphaBits wide enough for k = 1
// gives. The privacy trade-off of k > 1: within one group the blinding
// factors alpha/epsilon are shared across slots, so the STP sees the
// relative sign pattern of a group's k indicators (up to a global flip)
// instead of k independently flipped signs. See DESIGN.md §12. Returns
// 0 when the modulus cannot hold even one slot.
func (p Params) PackSlots() int {
	if p.SlotBits() <= 0 {
		return 0
	}
	return (p.PaillierBits - 2) / p.SlotBits()
}

// SlotCodec constructs the slot codec for these parameters.
func (p Params) SlotCodec() (*paillier.SlotCodec, error) {
	slots := p.PackSlots()
	if slots < 1 {
		return nil, fmt.Errorf("pisa: PaillierBits %d cannot hold one %d-bit slot",
			p.PaillierBits, p.SlotBits())
	}
	return paillier.NewSlotCodec(slots, p.SlotBits(), p.PlaintextBits)
}

// Validate checks the cryptographic budgets are mutually consistent:
// no homomorphic intermediate may wrap around the Paillier modulus.
func (p Params) Validate() error {
	if err := p.Watch.Validate(); err != nil {
		return err
	}
	switch {
	case p.PaillierBits < 128:
		return fmt.Errorf("pisa: PaillierBits %d too small", p.PaillierBits)
	case p.PlaintextBits < 8:
		return fmt.Errorf("pisa: PlaintextBits %d too small", p.PlaintextBits)
	case p.AlphaBits < 2:
		return fmt.Errorf("pisa: AlphaBits %d too small", p.AlphaBits)
	case p.BetaBits < 1 || p.BetaBits > p.AlphaBits-1:
		return fmt.Errorf("pisa: BetaBits %d must be in [1, AlphaBits-1=%d]", p.BetaBits, p.AlphaBits-1)
	case p.EtaBits < 1:
		return fmt.Errorf("pisa: EtaBits %d too small", p.EtaBits)
	case p.SignerBits < 512:
		return fmt.Errorf("pisa: SignerBits %d too small (min 512)", p.SignerBits)
	case p.SignerBits > dsig.MaxSignerBits(p.PaillierBits):
		return fmt.Errorf("pisa: SignerBits %d exceeds dsig.MaxSignerBits(%d) = %d",
			p.SignerBits, p.PaillierBits, dsig.MaxSignerBits(p.PaillierBits))
	case p.CacheEntries < 0:
		return fmt.Errorf("pisa: CacheEntries must not be negative")
	}
	domainOf := make(map[string]string)
	for domain, members := range p.CacheDomains {
		if domain == "" {
			return fmt.Errorf("pisa: CacheDomains contains an empty domain name")
		}
		if len(members) == 0 {
			return fmt.Errorf("pisa: cache domain %q has no members", domain)
		}
		for _, su := range members {
			if su == "" {
				return fmt.Errorf("pisa: cache domain %q lists an empty SUID", domain)
			}
			if prev, dup := domainOf[su]; dup && prev != domain {
				return fmt.Errorf("pisa: SU %q listed in cache domains %q and %q", su, prev, domain)
			}
			domainOf[su] = domain
		}
	}
	// Blinded value: |eps*(alpha*I - beta)| < 2^(AlphaBits + PlaintextBits) + 2^BetaBits.
	// It must stay inside the centred plaintext domain (-n/2, n/2).
	if p.AlphaBits+p.PlaintextBits+2 > p.PaillierBits-1 {
		return fmt.Errorf("pisa: alpha*I may wrap: AlphaBits %d + PlaintextBits %d + 2 > PaillierBits %d - 1",
			p.AlphaBits, p.PlaintextBits, p.PaillierBits)
	}
	// At least one whole slot (the same per-slot budget as above) must
	// fit inside the modulus, which SlotCodec checks while deriving the
	// geometry.
	codec, err := p.SlotCodec()
	if err != nil {
		return err
	}
	// Masked license: SG + eta * D. The signature must fit the SU key's
	// plaintext domain, and what eta and the signature leave free of it
	// (AnswerBits) must hold at least one slot of the STP's packed
	// answer.
	if p.SignerBits+2 > p.PaillierBits-1 {
		return fmt.Errorf("pisa: license signature may wrap (signer %d, paillier %d bits)", p.SignerBits, p.PaillierBits)
	}
	if _, err := answerCodec(codec.Slots(), p.AnswerBits(p.PaillierBits)); err != nil {
		return fmt.Errorf("pisa: license mask (EtaBits %d, SignerBits %d, PaillierBits %d): %w",
			p.EtaBits, p.SignerBits, p.PaillierBits, err)
	}
	// Radio quantisation must fit the declared plaintext width:
	// |I| <= N + R <= 2 * Quantize(S_max) * X + X + 1.
	maxUnits := 2*p.Watch.Quantize(p.Watch.SUMaxEIRPmW)*p.Watch.DeltaInt + p.Watch.DeltaInt + 1
	if maxUnits <= 0 {
		return fmt.Errorf("pisa: radio quantisation overflows int64")
	}
	if p.PlaintextBits < 63 && maxUnits > int64(1)<<p.PlaintextBits {
		return fmt.Errorf("pisa: radio quantisation needs more than PlaintextBits=%d (max |I| about %d)",
			p.PlaintextBits, maxUnits)
	}
	return nil
}
