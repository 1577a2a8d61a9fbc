package node

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"pisa/internal/wire"
)

// shortFaultCooldown shortens the PIR replica fault cooldown for one
// test.
func shortFaultCooldown(t *testing.T, d time.Duration) {
	old := pirFaultCooldown
	pirFaultCooldown = d
	t.Cleanup(func() { pirFaultCooldown = old })
}

// TestPIRReplicaCooldown pins the fan-out ordering rule: a replica
// whose last call ended in a transport fault is ordered behind the
// spares for the cooldown, reading its health changes nothing, and a
// call that ends any other way (an answer, a remote error) restores it
// at once.
func TestPIRReplicaCooldown(t *testing.T) {
	shortFaultCooldown(t, time.Minute)
	r := &pirReplica{addr: "replica"}
	now := time.Now()
	if !r.healthy(now) {
		t.Fatal("a replica that never failed is ordered behind the spares")
	}
	r.record(errors.New("connection reset"))
	if r.healthy(time.Now()) {
		t.Fatal("a replica whose last call faulted stays among the primaries")
	}
	later := time.Now().Add(2 * time.Minute)
	for i := 0; i < 3; i++ {
		if !r.healthy(later) {
			t.Fatalf("health read %d false after the cooldown elapsed", i)
		}
	}
	if r.healthy(time.Now()) {
		t.Fatal("reading health changed the replica's state")
	}
	r.record(&wire.RemoteError{Msg: "no such block"})
	if !r.healthy(time.Now()) {
		t.Fatal("a remote error (a healthy transport) left the replica behind the spares")
	}
	r.record(errors.New("connection reset"))
	r.record(nil)
	if !r.healthy(time.Now()) {
		t.Fatal("a successful call left the replica behind the spares")
	}
}

// TestPIRNoDoubleListAfterCooldown is the regression for the
// double-listed-replica bug: with m = k = 2 and one replica dead past
// its fault cooldown, a health partition that read each replica's
// health twice could see it flip between the reads and list the dead
// replica in BOTH the healthy and spare partitions, so a share could
// be "reassigned" to the very replica that just failed it (and, with a
// live-but-flapping replica, two shares of one query could reach the
// same replica, breaking the non-collusion argument). Listed once, the
// failing share exhausts the pool immediately and no reassignment is
// counted.
func TestPIRNoDoubleListAfterCooldown(t *testing.T) {
	shortFaultCooldown(t, time.Millisecond)
	n := startPIRNet(t, 2)
	c, err := DialPIRWith(fastOpts(), 2, n.addrs...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	n.servers[1].Close()
	// First fetch fails and orders the dead replica behind the spares.
	if _, _, err := c.Fetch(context.Background(), 0); err == nil {
		t.Fatal("fetch with a dead replica of an m=k fleet succeeded")
	}
	if c.replicas[1].faultedAt.Load() == 0 {
		t.Fatal("dead replica's transport fault was not recorded")
	}
	time.Sleep(10 * time.Millisecond) // the cooldown elapses

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
	shortFaultCooldown(t, 50*time.Millisecond)
	n := startPIRNet(t, 4)
	opts := fastOpts()
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
		maxRetries := uint64(opts.Retry.MaxAttempts-1) * s.Calls
		if s.Retries > maxRetries {
			t.Errorf("%s: Retries %d exceed (attempts-1)*Calls = %d", addr, s.Retries, maxRetries)
		}
	}
}
