package pisa

import (
	"crypto/rsa"
	"fmt"
	"io"
	"math/big"
	"sync/atomic"
	"time"

	"pisa/internal/dsig"
	"pisa/internal/paillier"
)

// Licenser issues a deployment's licenses (Figure 5 steps 10-11): it
// holds the issuer name, the RSA signing key, the serial counter, the
// validity window and the clock. A deployment has exactly one, held by
// its Router; a windowed shard has none, and VerifyKey and Serial on its
// nil Licenser report no key and no license.
type Licenser struct {
	issuer  string
	signer  *dsig.Signer
	random  io.Reader
	now     func() time.Time
	etaBits int
	serial  atomic.Uint64
}

// licenseTTL is the validity window of every license issued.
const licenseTTL = 24 * time.Hour

// newLicenser generates the license-signing key (Params.SignerBits) and
// returns the issuer of licenses named issuer. A nil now means time.Now.
// random must be safe for concurrent use (paillier.SharedReader):
// concurrent requests sign and mask through it.
func newLicenser(issuer string, params Params, random io.Reader, now func() time.Time) (*Licenser, error) {
	signer, err := dsig.NewSigner(random, params.SignerBits)
	if err != nil {
		return nil, err
	}
	if now == nil {
		now = time.Now
	}
	return &Licenser{issuer: issuer, signer: signer, random: random, now: now, etaBits: params.EtaBits}, nil
}

// VerifyKey returns the public key SUs use to check license signatures;
// nil for a nil Licenser.
func (l *Licenser) VerifyKey() *rsa.PublicKey {
	if l == nil {
		return nil
	}
	return l.signer.Public()
}

// Serial reports the last issued license serial; 0 for a nil Licenser.
func (l *Licenser) Serial() uint64 {
	if l == nil {
		return 0
	}
	return l.serial.Load()
}

// Issue builds the next license for suid's request with the given
// digest, signs it, encrypts the signature under the SU key, and masks
// it with eta_c (x) D_c for every grant indicator D_c (eq. 17), so the
// SU recovers the signature iff every D_c decrypts to 0. Each indicator
// gets its own fresh eta: the D's are never added to each other, whose
// digits could cancel (ShardAnswer), and with independent masks some
// D_c != 0 survives into the sum unless its eta_c hits the one value
// that cancels the rest — a false grant has probability at most
// 2^-(etaBits-1) however many indicators there are. The router passes
// those of every shard, one per ciphertext of each shard's STP answer.
// The mask is summed first, so an indicator that is no ciphertext under
// suKey is refused before a serial is spent or anything is signed.
func (l *Licenser) Issue(suid string, digest [32]byte, suKey *paillier.PublicKey, ds []*paillier.Ciphertext) (*Response, error) {
	if len(ds) == 0 {
		return nil, fmt.Errorf("pisa: no grant indicator to mask the license with")
	}
	etaLo := new(big.Int).Lsh(big.NewInt(1), uint(l.etaBits-1))
	etaHi := new(big.Int).Lsh(big.NewInt(1), uint(l.etaBits))
	var mask *paillier.Ciphertext
	for _, d := range ds {
		eta, err := paillier.RandomInRange(l.random, etaLo, etaHi)
		if err != nil {
			return nil, err
		}
		term, err := suKey.ScalarMul(eta, d)
		if err != nil {
			return nil, fmt.Errorf("pisa: mask term: %w", err)
		}
		if mask == nil {
			mask = term
		} else if mask, err = suKey.Add(mask, term); err != nil {
			return nil, fmt.Errorf("pisa: mask term: %w", err)
		}
	}
	now := l.now()
	lic := dsig.License{
		SUID:          suid,
		Issuer:        l.issuer,
		Serial:        l.serial.Add(1),
		IssuedUnix:    now.Unix(),
		ExpiresUnix:   now.Add(licenseTTL).Unix(),
		RequestDigest: digest,
	}
	sig, err := l.signer.Sign(&lic)
	if err != nil {
		return nil, err
	}
	encSig, err := suKey.Encrypt(l.random, dsig.SignatureToInt(sig))
	if err != nil {
		return nil, fmt.Errorf("pisa: encrypt signature: %w", err)
	}
	masked, err := suKey.Add(encSig, mask)
	if err != nil {
		return nil, fmt.Errorf("pisa: mask signature: %w", err)
	}
	return &Response{License: lic, MaskedSig: masked}, nil
}
