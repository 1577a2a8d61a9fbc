package node

import (
	"errors"
	"math/rand"
	"time"

	"pisa/internal/wire"
)

// Every backoff doubles per attempt (retryMultiplier) and is jittered
// within ±20 % (retryJitter) so synchronised clients do not retry in
// lockstep.
const (
	retryMultiplier = 2
	retryJitter     = 0.2
)

// RetryPolicy bounds the resilient client's retry loop: exponential
// backoff with jitter, capped per attempt and in total attempts.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per call, including
	// the first; values below 1 take the default (4).
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt; it doubles
	// per further attempt. Default 50 ms.
	BaseDelay time.Duration
	// MaxDelay caps the pre-jitter backoff. Default 2 s. Jitter is
	// applied after the cap, so an individual delay may reach
	// 1.2·MaxDelay — capping the jittered value instead would
	// pile half of every capped draw onto exactly MaxDelay and
	// re-synchronise the retry storms the jitter exists to break up.
	MaxDelay time.Duration
	// Rand supplies the jitter draws in [0, 1). Nil uses math/rand's
	// shared concurrency-safe source; tests inject a deterministic one.
	Rand func() float64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.Rand == nil {
		p.Rand = rand.Float64
	}
	return p
}

// delay computes the backoff before attempt n+1 (n >= 1 counts
// completed attempts). The policy must already carry its defaults.
//
// The jitter multiplies the capped exponential delay and is NOT
// re-clamped: truncating the jittered value at MaxDelay would make
// every upward draw in the cap region collapse onto exactly MaxDelay,
// turning the distribution one-sided and re-synchronising the clients
// the jitter is meant to spread out. Delays therefore range over
// [0.8·d, 1.2·d] symmetrically, even at the cap.
func (p RetryPolicy) delay(n int) time.Duration {
	d := float64(p.BaseDelay)
	for i := 1; i < n; i++ {
		d *= retryMultiplier
		if d >= float64(p.MaxDelay) {
			d = float64(p.MaxDelay)
			break
		}
	}
	return time.Duration(d * (1 + retryJitter*(2*p.Rand()-1)))
}

// dialError marks a failure that happened before any bytes reached
// the wire: the request was provably never delivered, so even
// non-idempotent calls may retry it.
type dialError struct {
	addr string
	err  error
}

func (e *dialError) Error() string { return "node: dial " + e.addr + ": " + e.err.Error() }
func (e *dialError) Unwrap() error { return e.err }

// Retryable classifies an RPC error for the retry loop: a
// *wire.RemoteError is an authoritative answer from a healthy peer
// and must not be retried; everything else (dial failures, resets,
// deadline expiries, desynchronised framing) is a transport fault
// that another attempt may clear.
func Retryable(err error) bool {
	var remote *wire.RemoteError
	return err != nil && !errors.As(err, &remote)
}

// idempotentKind reports whether a request may be safely re-sent even
// though a previous attempt might have reached the server. Fetches of
// public material (group key, SU keys, E columns, verify key) and the
// sign conversion (a pure function of the request) qualify; SU
// registration does too because the STP registry treats a same-key
// re-registration as a no-op. The PIR kinds qualify: metadata and
// selection-vector queries are pure reads. A shard query qualifies
// too: ProcessShard reads a budget snapshot and never bumps the
// license serial, so replaying it after a lost reply re-derives
// equivalent grant indicators. PU updates and SU transmission requests
// mutate budget state and are sent at most once per transport attempt
// that reaches the wire.
func idempotentKind(k wire.Kind) bool {
	switch k {
	case wire.KindGroupKeyRequest, wire.KindSUKeyRequest, wire.KindEColumnRequest,
		wire.KindVerifyKeyRequest, wire.KindConvertRequest, wire.KindRegisterSU,
		wire.KindPIRMetaRequest, wire.KindPIRQuery,
		wire.KindShardQuery:
		return true
	}
	return false
}
