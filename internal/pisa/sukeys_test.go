package pisa

import (
	"crypto/rand"
	"fmt"
	"math/big"
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

// wireSTP hands out SU keys as a socket does: a fresh object carrying
// only the modulus and the nonce base, never prepared.
type wireSTP struct{ *swapSTP }

func (w wireSTP) SUKey(id string) (*paillier.PublicKey, error) {
	pk, err := w.swapSTP.SUKey(id)
	if err != nil {
		return nil, err
	}
	return &paillier.PublicKey{N: pk.N, H: pk.H}, nil
}

// TestSUKeyCacheEvictionAndArming covers the cache's own contract:
// one fetch per id while it stays cached, least-recently-used eviction
// at capacity followed by a re-fetch, errors not cached, a decoded key
// prepared before it is shared, and an in-process registry key reused
// as it is. Neither builds a table: a key tables its nonce base on its
// first nonce, whoever draws it.
func TestSUKeyCacheEvictionAndArming(t *testing.T) {
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

	cache := newSUKeyCache(wireSTP{front})
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
	if a.NonceTableBytes() != 0 {
		t.Fatal("cache built a table on fetch")
	}
	// Prepared on the way in: a value copy taken now shares the table
	// the key's first nonce builds.
	copied := *a
	if _, err := a.EncryptInt(rand.Reader, 1); err != nil {
		t.Fatal(err)
	}
	if copied.NonceTableBytes() == 0 {
		t.Fatal("cache handed out an unprepared key")
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

	// An in-process STP hands out its registry's prepared key: reused as
	// is, so the registry and the cache share one table.
	stored, err := stp.SUKey("b")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := newSUKeyCache(front).Get("b"); err != nil || got != stored {
		t.Fatalf("registry key not reused as is (err %v)", err)
	}
}

// TestSUKeyCacheConcurrentMissesShareOneFetch: a burst of first
// requests from one SU costs one STP round trip and yields one key
// object, so one table build.
func TestSUKeyCacheConcurrentMissesShareOneFetch(t *testing.T) {
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
	cache := newSUKeyCache(wireSTP{front})
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
// STP's randomness source it holds one conversion inside the first-use
// table build of a key without a published nonce base, which draws a
// private base from the reader.
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

// TestRegistrationDoesNotBlockLookups parks one sign conversion inside
// the first-use table build of its SU's key and checks that conversions
// and key lookups for other SUs, and new registrations, keep going
// meanwhile: a key's build holds only that key (an SU key tables itself
// on the first answer encrypted under it, tens of milliseconds at 2048
// bits), never the registry. Then the parked conversion completes, into
// a key that now carries its table.
func TestRegistrationDoesNotBlockLookups(t *testing.T) {
	gate := newGateReader()
	params := TestParams(testWatchParams(t))
	group, err := paillier.GenerateKey(rand.Reader, params.PaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	stp := NewSTPWithKey(rand.Reader, group)
	stp.random = gate // what conversions draw answer nonces (and private bases) from
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

	keyOf := func() *paillier.PrivateKey {
		sk, err := paillier.GenerateKey(rand.Reader, 256)
		if err != nil {
			t.Fatal(err)
		}
		return sk
	}
	// Only a bare-modulus key reads the gate while building its table.
	late := keyOf()
	if err := stp.RegisterSU("late", &paillier.PublicKey{N: late.N}); err != nil {
		t.Fatal(err)
	}
	v, err := stp.GroupKey().Encrypt(rand.Reader, big.NewInt(-9))
	if err != nil {
		t.Fatal(err)
	}
	gate.armed.Store(true)
	type result struct {
		resp *SignResponse
		err  error
	}
	parked := make(chan result, 1)
	go func() {
		resp, err := stp.ConvertSigns(&SignRequest{SUID: "late", V: []*paillier.Ciphertext{v}, Slots: 1, SlotBits: 64, AnswerBits: 64})
		parked <- result{resp, err}
	}()
	<-gate.entered

	// The storm: requests (each one a ConvertSigns with its SU-key
	// lookup and su-1's own first-use build), direct lookups and
	// registrations, all while "late" is mid-build.
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
			if err := stp.RegisterSU(fmt.Sprintf("new-%d", i), keyOf().Public()); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("during a parked table build: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("conversions or registrations blocked behind another key's table build")
	}

	close(gate.release)
	r := <-parked
	if r.err != nil {
		t.Fatalf("parked conversion: %v", r.err)
	}
	if m, err := late.DecryptInt(r.resp.X[0]); err != nil || m != -1 {
		t.Fatalf("parked conversion: m=%d err=%v, want -1", m, err)
	}
	if stored, err := stp.SUKey("late"); err != nil || stored.NonceTableBytes() == 0 {
		t.Fatalf("parked conversion left the key untabled (err %v)", err)
	}
}
