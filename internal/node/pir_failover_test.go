package node

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestBreakerViableReadOnly pins the contract split between allow and
// viable: allow consumes the open → half-open probe (exactly one
// caller per cooldown window), viable merely predicts it. Health
// ordering that used allow saw the two reads of one decision disagree.
func TestBreakerViableReadOnly(t *testing.T) {
	b := &breaker{cfg: BreakerConfig{FailureThreshold: 1, Cooldown: 50 * time.Millisecond}.withDefaults()}
	now := time.Now()
	if !b.viable(now) || !b.allow(now) {
		t.Fatal("closed breaker rejects traffic")
	}
	if !b.failure(now) {
		t.Fatal("threshold-1 failure did not open the breaker")
	}
	if b.viable(now) || b.allow(now) {
		t.Fatal("freshly opened breaker admits traffic")
	}
	later := now.Add(100 * time.Millisecond)
	// viable is repeatable: any number of reads, no state change.
	for i := 0; i < 3; i++ {
		if !b.viable(later) {
			t.Fatalf("viable read %d false after cooldown elapsed", i)
		}
	}
	if state, _ := b.snapshot(); state != "open" {
		t.Fatalf("viable mutated breaker state to %q", state)
	}
	// allow hands out the single probe; both predicates then reject
	// until the probe resolves.
	if !b.allow(later) {
		t.Fatal("first allow after cooldown did not admit the probe")
	}
	if b.viable(later) || b.allow(later) {
		t.Fatal("second caller admitted while the half-open probe is in flight")
	}
	b.success()
	if !b.viable(later) {
		t.Fatal("probe success did not re-close the breaker")
	}
}

// TestPIRNoDoubleListAfterCooldown is the regression for the
// double-listed-replica bug: with m = k = 2 and one replica dead with
// its breaker open past cooldown, the health partition used to consume
// the breaker's probe on the first read and flip on the second — the
// dead replica landed in BOTH the healthy and spare partitions, so a
// share could be "reassigned" to the very replica that just failed it
// (and, with a live-but-flapping replica, two shares of one query
// could reach the same replica, breaking the non-collusion argument).
// Post-fix the replica is listed once: the failing share exhausts the
// pool immediately and no reassignment is counted.
func TestPIRNoDoubleListAfterCooldown(t *testing.T) {
	n := startPIRNet(t, 2)
	opts := fastOpts()
	opts.Breaker = BreakerConfig{FailureThreshold: 1, Cooldown: time.Millisecond}
	c, err := DialPIRWith(opts, 2, n.addrs...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	n.servers[1].Close()
	// First fetch fails and opens the dead replica's breaker.
	if _, _, err := c.Fetch(context.Background(), 0); err == nil {
		t.Fatal("fetch with a dead replica of an m=k fleet succeeded")
	}
	if state, _ := c.replicas[1].c.endpoints[0].brk.snapshot(); state != "open" {
		t.Fatalf("dead replica breaker %q, want open", state)
	}
	time.Sleep(10 * time.Millisecond) // cooldown elapses; breaker stays open until probed

	m := pirMetrics()
	before := m.reassign.Value()
	_, _, err = c.Fetch(context.Background(), 0)
	if err == nil || !strings.Contains(err.Error(), "degraded") {
		t.Fatalf("fetch = %v, want degraded error", err)
	}
	if d := m.reassign.Value() - before; d != 0 {
		t.Fatalf("reassignments = %d after exhausting a single-listed replica, want 0 (replica was listed twice)", d)
	}
}

// TestPIRFailoverStatsInvariants kills a primary mid-run with spares
// available and checks both the share accounting (every fetch still
// succeeds, reassignments are counted) and the per-replica ClientStats
// invariants the resilience layer promises.
func TestPIRFailoverStatsInvariants(t *testing.T) {
	n := startPIRNet(t, 4)
	opts := fastOpts()
	opts.Breaker = BreakerConfig{FailureThreshold: 1, Cooldown: 50 * time.Millisecond}
	c, err := DialPIRWith(opts, 2, n.addrs...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	m := pirMetrics()
	fetchesBefore := m.fetches.Value()
	reassignBefore := m.reassign.Value()

	var wg sync.WaitGroup
	const rounds = 8
	errs := make([]error, rounds)
	for i := 0; i < rounds; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = c.Fetch(context.Background(), 5)
		}(i)
		if i == 2 {
			n.servers[0].Close() // kill a primary mid-stream
		}
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("fetch %d with %d spares available failed: %v", i, 2, err)
		}
	}
	if d := m.fetches.Value() - fetchesBefore; d != rounds {
		t.Fatalf("fetches counter advanced by %d, want %d (one per Fetch, not per attempt)", d, rounds)
	}
	// Shares that hit the dead replica moved to spares; each such move
	// is one reassignment, and a round has at most k-1 = 1 of them plus
	// at most one per later probe of the still-dead primary.
	if d := m.reassign.Value() - reassignBefore; d > rounds {
		t.Fatalf("reassignments = %d for %d rounds, double-counting suspected", d, rounds)
	}
	for _, r := range c.replicas {
		addr, s := r.addr, r.c.Stats()
		if s.DialFailures > s.Dials {
			t.Errorf("%s: DialFailures %d > Dials %d", addr, s.DialFailures, s.Dials)
		}
		if s.BreakerOpens > s.TransportFaults {
			t.Errorf("%s: BreakerOpens %d > TransportFaults %d", addr, s.BreakerOpens, s.TransportFaults)
		}
		if s.Failovers > s.BreakerOpens {
			t.Errorf("%s: Failovers %d > BreakerOpens %d (single-endpoint replica clients never rotate)", addr, s.Failovers, s.BreakerOpens)
		}
		maxRetries := uint64(opts.Retry.MaxAttempts-1) * s.Calls
		if s.Retries > maxRetries {
			t.Errorf("%s: Retries %d exceed (attempts-1)*Calls = %d", addr, s.Retries, maxRetries)
		}
	}
}
