package node

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"pisa/internal/wire"
)

// Regression test for the one-sided jitter bug: delays at the
// MaxDelay cap used to be jittered and then re-clamped, so every
// upward draw collapsed onto exactly MaxDelay — half the distribution
// at a single point, which re-synchronises retry storms. The jittered
// delay must spread symmetrically around the cap.
func TestDelayJitterSymmetricAtCap(t *testing.T) {
	const draws = 2000
	p := RetryPolicy{
		BaseDelay: 50 * time.Millisecond,
		MaxDelay:  2 * time.Second,
	}.withDefaults()

	max := float64(p.MaxDelay)
	lo, hi := time.Duration((1-retryJitter)*max), time.Duration((1+retryJitter)*max)
	var below, above, exact int
	for i := 0; i < draws; i++ {
		d := p.delay(20) // deep in the cap region: pre-jitter delay = MaxDelay
		if d < lo || d > hi {
			t.Fatalf("delay %v outside [%v, %v]", d, lo, hi)
		}
		switch {
		case d < p.MaxDelay:
			below++
		case d > p.MaxDelay:
			above++
		default:
			exact++
		}
	}
	// Symmetric jitter puts ~half the draws on each side of the cap.
	// The old code had above == 0 and exact ≈ draws/2.
	if above < draws/3 || below < draws/3 {
		t.Fatalf("jitter at cap is one-sided: %d below, %d at, %d above MaxDelay", below, exact, above)
	}
	if exact > draws/10 {
		t.Fatalf("%d/%d draws collapsed onto exactly MaxDelay", exact, draws)
	}
}

// The injected jitter source makes delays fully deterministic, so the
// schedule can be asserted exactly.
func TestDelayDeterministicWithInjectedRand(t *testing.T) {
	seq := []float64{0, 0.5, 1 - 1e-12}
	i := 0
	p := RetryPolicy{
		BaseDelay: 100 * time.Millisecond,
		MaxDelay:  time.Second,
		Rand:      func() float64 { v := seq[i%len(seq)]; i++; return v },
	}.withDefaults()

	// n=1: pre-jitter 100ms; draw 0 → factor 0.8.
	if got, want := p.delay(1), 80*time.Millisecond; got != want {
		t.Errorf("delay(1) = %v, want %v", got, want)
	}
	// n=2: pre-jitter 200ms; draw 0.5 → factor 1.
	if got, want := p.delay(2), 200*time.Millisecond; got != want {
		t.Errorf("delay(2) = %v, want %v", got, want)
	}
	// n=5: pre-jitter capped at 1s; draw ~1 → factor ~1.2, beyond the
	// cap and NOT re-clamped.
	if got := p.delay(5); got <= p.MaxDelay || got > 6*p.MaxDelay/5 {
		t.Errorf("delay(5) = %v, want in (1s, 1.2s]", got)
	}
}

// A policy nobody configured still jitters by ±20 %: every caller
// leaves the policy at its zero value, and an unjittered fleet retries
// in lockstep.
func TestDelayJitteredByDefault(t *testing.T) {
	p := RetryPolicy{Rand: func() float64 { return 0 }}.withDefaults()
	if got, want := p.delay(1), 40*time.Millisecond; got != want {
		t.Errorf("zero-value policy: delay(1) = %v, want 0.8 × %v = %v", got, p.BaseDelay, want)
	}
}

// Regression test for torn Stats snapshots: under concurrent traffic
// a snapshot could load e.g. Dials before DialFailures and report
// more failures than dials. Hammer a client whose dials always fail
// while snapshotting, and check every monotonic pair in every
// snapshot. Run with -race.
func TestClientStatsSnapshotsNeverTear(t *testing.T) {
	c := newClient("10.255.255.1:1", Options{
		DialTimeout: time.Millisecond,
		Retry:       RetryPolicy{MaxAttempts: 2, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond},
	})
	c.dial = func(addr string, timeout time.Duration) (net.Conn, error) {
		return nil, fmt.Errorf("injected dial failure")
	}
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				c.callCtx(ctx, &wire.Envelope{Kind: wire.KindGroupKeyRequest}, wire.KindGroupKey)
			}
		}()
	}
	deadline := time.Now().Add(200 * time.Millisecond)
	for time.Now().Before(deadline) {
		s := c.Stats()
		if s.DialFailures > s.Dials {
			t.Errorf("torn snapshot: DialFailures %d > Dials %d", s.DialFailures, s.Dials)
			break
		}
		if maxExtra := uint64(c.opts.Retry.MaxAttempts-1) * s.Calls; s.Retries > maxExtra {
			t.Errorf("torn snapshot: Retries %d > (MaxAttempts-1)*Calls %d", s.Retries, maxExtra)
			break
		}
	}
	cancel()
	wg.Wait()
}
