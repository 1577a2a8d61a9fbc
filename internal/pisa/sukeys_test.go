package pisa

import (
	"crypto/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pisa/internal/geo"
	"pisa/internal/paillier"
)

// swapSTP lets a test replace the STP behind a running SDC, the way an
// STP that lost its registry and came back looks from the SDC's side.
type swapSTP struct {
	mu  sync.Mutex
	cur STPService

	suKeyCalls atomic.Int64
}

func (s *swapSTP) get() STPService {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur
}

func (s *swapSTP) set(stp STPService) {
	s.mu.Lock()
	s.cur = stp
	s.mu.Unlock()
}

func (s *swapSTP) ConvertSigns(req *SignRequest) (*SignResponse, error) {
	return s.get().ConvertSigns(req)
}

func (s *swapSTP) SUKey(id string) (*paillier.PublicKey, error) {
	s.suKeyCalls.Add(1)
	return s.get().SUKey(id)
}

func (s *swapSTP) GroupKey() *paillier.PublicKey { return s.get().GroupKey() }

// TestSUKeyCacheStaleEntryFailsClosed: an SDC whose cached SU key no
// longer matches what the STP holds must fail the request or produce a
// response nobody can open — neither the SU holding the new key nor the
// one holding the old — and never a grant. A restarted SDC (empty cache) serves the
// new key normally.
func TestSUKeyCacheStaleEntryFailsClosed(t *testing.T) {
	wp := testWatchParams(t)
	params := TestParams(wp)
	group, err := paillier.GenerateKey(rand.Reader, params.PaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	stpA := NewSTPWithKey(rand.Reader, group)
	front := &swapSTP{cur: stpA}
	sdc, err := NewSDC("sdc-test", params, nil, front)
	if err != nil {
		t.Fatal(err)
	}
	defer sdc.Close()

	newSU := func(stp *STP) *SU {
		su, err := NewSU(rand.Reader, "su-1", 7, params, sdc.Planner(), stp.GroupKey())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(su.Close)
		if err := stp.RegisterSU("su-1", su.PublicKey()); err != nil {
			t.Fatal(err)
		}
		return su
	}
	open := func(s *SDC, su *SU) (granted bool) {
		req, err := su.PrepareRequest(map[int]int64{1: 100}, geo.Disclosure{})
		if err != nil {
			t.Fatal(err)
		}
		// Under a stale key the sign values may already fall outside the
		// stale modulus and fail the request; that is as closed as a
		// response that opens to noise.
		resp, err := s.ProcessRequest(req)
		if err != nil {
			t.Logf("ProcessRequest: %v", err)
			return false
		}
		grant, err := su.OpenResponse(resp, req, s.VerifyKey())
		return err == nil && grant.Granted
	}

	suOld := newSU(stpA)
	if !open(sdc, suOld) {
		t.Fatal("premise broken: quiet SU denied")
	}

	// The STP comes back with the same group key and an empty registry;
	// the SU registers again under its old id with a fresh key pair.
	stpB := NewSTPWithKey(rand.Reader, group)
	suNew := newSU(stpB)
	front.set(stpB)

	if open(sdc, suNew) {
		t.Fatal("SU opened a license issued under a stale cached key")
	}
	if open(sdc, suOld) {
		t.Fatal("holder of the stale key opened a license after the STP moved to another key")
	}
	if got := front.suKeyCalls.Load(); got != 1 {
		t.Fatalf("SDC fetched the SU key %d times over three requests, want 1", got)
	}

	restarted, err := NewSDC("sdc-test", params, nil, front)
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	if !open(restarted, suNew) {
		t.Fatal("restarted SDC does not serve the re-registered SU")
	}
}

// TestSUKeyCacheEvictionAndArming covers the cache's own contract:
// one fetch per id while it stays cached, least-recently-used eviction
// at capacity followed by a re-fetch, errors not cached, keys prepared
// before they are shared, armed only for an owner that encrypts, and an
// already-armed key reused as it is.
func TestSUKeyCacheEvictionAndArming(t *testing.T) {
	params := TestParams(testWatchParams(t))
	stp, err := NewSTP(rand.Reader, 256)
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"a", "b", "c"}
	for _, id := range ids {
		sk, err := paillier.GenerateKey(rand.Reader, 256)
		if err != nil {
			t.Fatal(err)
		}
		if err := stp.RegisterSU(id, sk.Public()); err != nil {
			t.Fatal(err)
		}
	}
	front := &swapSTP{cur: stp}
	random := paillier.SharedReader(rand.Reader)

	cache := newSUKeyCache(front, params, random, true)
	cache.cap = 2
	get := func(id string) *paillier.PublicKey {
		t.Helper()
		pk, err := cache.Get(id)
		if err != nil {
			t.Fatalf("Get(%q): %v", id, err)
		}
		return pk
	}
	wantCalls := func(n int64) {
		t.Helper()
		if got := front.suKeyCalls.Load(); got != n {
			t.Fatalf("STP saw %d SU-key fetches, want %d", got, n)
		}
	}
	a := get("a")
	if !a.FastExpEnabled() {
		t.Fatal("arming cache handed out an unarmed key")
	}
	if stored, _ := stp.SUKey("a"); stored.FastExpEnabled() {
		t.Fatal("arming the cached key wrote to the STP's own key object")
	}
	if get("a") != a {
		t.Fatal("second Get returned a different key object")
	}
	wantCalls(1)
	get("b")
	get("c") // evicts "a", the least recently used
	wantCalls(3)
	get("c")
	get("b")
	wantCalls(3)
	if get("a") == a {
		t.Fatal("evicted entry still served")
	}
	wantCalls(4)

	for i := 0; i < 2; i++ {
		if _, err := cache.Get("ghost"); err == nil {
			t.Fatal("unknown SU resolved")
		}
	}
	wantCalls(6) // the error was not cached

	// A windowed shard's cache prepares but does not arm.
	bare := newSUKeyCache(front, params, random, false)
	pk, err := bare.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if pk.FastExpEnabled() {
		t.Fatal("non-arming cache built a table")
	}
	if pk.NSquared() == nil {
		t.Fatal("key not prepared")
	}

	// An STP armed by SetFastExp hands out armed keys: reused, not copied.
	if err := stp.SetFastExp(0, 0); err != nil {
		t.Fatal(err)
	}
	armed, err := stp.SUKey("b")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := newSUKeyCache(front, params, random, true).Get("b"); err != nil || got != armed {
		t.Fatalf("armed registry key not reused as is (err %v)", err)
	}
}

// TestSUKeyCacheConcurrentMissesShareOneFetch: a burst of first
// requests from one SU costs one STP round trip and one table build.
func TestSUKeyCacheConcurrentMissesShareOneFetch(t *testing.T) {
	params := TestParams(testWatchParams(t))
	stp, err := NewSTP(rand.Reader, 256)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := paillier.GenerateKey(rand.Reader, 256)
	if err != nil {
		t.Fatal(err)
	}
	if err := stp.RegisterSU("a", sk.Public()); err != nil {
		t.Fatal(err)
	}
	front := &swapSTP{cur: stp}
	cache := newSUKeyCache(front, params, paillier.SharedReader(rand.Reader), true)
	const callers = 8
	keys := make([]*paillier.PublicKey, callers)
	var wg sync.WaitGroup
	for i := range keys {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pk, err := cache.Get("a")
			if err != nil {
				t.Error(err)
			}
			keys[i] = pk
		}(i)
	}
	wg.Wait()
	for _, pk := range keys {
		if pk != keys[0] {
			t.Fatal("concurrent callers got different key objects")
		}
	}
	if got := front.suKeyCalls.Load(); got != 1 {
		t.Fatalf("%d concurrent first requests cost %d fetches, want 1", callers, got)
	}
}

// gateReader passes reads through to crypto/rand, except that once
// armed the next Read parks until release is closed. Installed as the
// registry's randomness source it holds one caller inside key arming —
// of a key without a published nonce base, which draws a private table
// base from the reader.
type gateReader struct {
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func newGateReader() *gateReader {
	return &gateReader{entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gateReader) Read(p []byte) (int, error) {
	if g.armed.CompareAndSwap(true, false) {
		close(g.entered)
		<-g.release
	}
	return rand.Read(p)
}

// TestRegistrationDoesNotBlockLookups parks one registration inside its
// table build and checks that sign conversions and key lookups for
// other SUs keep going meanwhile (the registry used to build the table
// under its write lock, stalling every convertAll -> SUKey), then that a
// same-id registration which overtook the parked one decides the
// outcome: the parked one is refused for carrying a different key.
func TestRegistrationDoesNotBlockLookups(t *testing.T) {
	gate := newGateReader()
	params := TestParams(testWatchParams(t))
	group, err := paillier.GenerateKey(rand.Reader, params.PaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	stp := NewSTPWithKey(rand.Reader, group)
	stp.sus.random = gate // only key building draws from the gate
	if err := stp.SetFastExp(0, 0); err != nil {
		t.Fatal(err)
	}
	sdc, err := NewSDC("sdc-test", params, nil, stp)
	if err != nil {
		t.Fatal(err)
	}
	defer sdc.Close()
	su, err := NewSU(rand.Reader, "su-1", 7, params, sdc.Planner(), stp.GroupKey())
	if err != nil {
		t.Fatal(err)
	}
	defer su.Close()
	if err := stp.RegisterSU("su-1", su.PublicKey()); err != nil {
		t.Fatal(err)
	}
	req, err := su.PrepareRequest(map[int]int64{1: 100}, geo.Disclosure{})
	if err != nil {
		t.Fatal(err)
	}

	keyOf := func() *paillier.PublicKey {
		sk, err := paillier.GenerateKey(rand.Reader, 256)
		if err != nil {
			t.Fatal(err)
		}
		return sk.Public()
	}
	// Only a bare-modulus key reads the gate while it is armed.
	slowKey, fastKey := &paillier.PublicKey{N: keyOf().N}, keyOf()
	gate.armed.Store(true)
	parked := make(chan error, 1)
	go func() { parked <- stp.RegisterSU("late", slowKey) }()
	<-gate.entered

	// The storm: requests (each one a ConvertSigns with its SU-key
	// lookup) and direct lookups, all while "late" is mid-registration.
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 3; i++ {
			if _, err := sdc.ProcessRequest(req); err != nil {
				done <- err
				return
			}
			if _, err := stp.SUKey("su-1"); err != nil {
				done <- err
				return
			}
		}
		done <- stp.RegisterSU("late", fastKey)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("during a parked registration: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("lookups blocked behind a registration that is building its table")
	}

	close(gate.release)
	if err := <-parked; err == nil {
		t.Fatal("parked registration overwrote the same-id registration that won the race")
	}
	stored, err := stp.SUKey("late")
	if err != nil {
		t.Fatal(err)
	}
	if !stored.Equal(fastKey) || !stored.FastExpEnabled() {
		t.Fatal("registry does not hold the winning key, armed")
	}
}
