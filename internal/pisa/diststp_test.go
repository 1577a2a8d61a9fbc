package pisa

import (
	"crypto/rand"
	"errors"
	"strings"
	"testing"
	"time"

	"pisa/internal/geo"
	"pisa/internal/paillier"
)

// distDeployment builds a universe where the SDC talks to the
// distributed (no-single-STP) service — the paper's §VII extension.
func distDeployment(t *testing.T, holders int) (*DistSTP, *SDC, Params) {
	t.Helper()
	params := TestParams(testWatchParams(t))
	dist, err := NewDistSTP(rand.Reader, params.PaillierBits, holders)
	if err != nil {
		t.Fatalf("NewDistSTP: %v", err)
	}
	sdc, err := NewSDC("sdc-dist", params, nil, dist)
	if err != nil {
		t.Fatalf("NewSDC: %v", err)
	}
	return dist, sdc, params
}

func TestDistSTPEndToEnd(t *testing.T) {
	dist, sdc, params := distDeployment(t, 2)
	su, err := NewSU(rand.Reader, "su-1", 7, params, sdc.Planner(), dist.GroupKey())
	if err != nil {
		t.Fatal(err)
	}
	if err := dist.RegisterSU(su.ID(), su.PublicKey()); err != nil {
		t.Fatal(err)
	}
	// PU constrains channel 1 next door.
	eCol, err := sdc.EColumn(8)
	if err != nil {
		t.Fatal(err)
	}
	pu, err := NewPU(rand.Reader, "tv-1", 8, eCol, dist.GroupKey(), params)
	if err != nil {
		t.Fatal(err)
	}
	update, err := pu.Tune(1, params.Watch.Quantize(params.Watch.SMinPUmW))
	if err != nil {
		t.Fatal(err)
	}
	if err := sdc.HandlePUUpdate(update); err != nil {
		t.Fatal(err)
	}

	ask := func(eirp int64) bool {
		t.Helper()
		req, err := su.PrepareRequest(map[int]int64{1: eirp}, geo.Disclosure{})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := sdc.ProcessRequest(req)
		if err != nil {
			t.Fatal(err)
		}
		grant, err := su.OpenResponse(resp, req, sdc.VerifyKey())
		if err != nil {
			t.Fatal(err)
		}
		return grant.Granted
	}
	if ask(params.Watch.Quantize(params.Watch.SUMaxEIRPmW)) {
		t.Fatal("max-power SU next to active PU granted under distributed STP")
	}
	if !ask(params.Watch.Quantize(1e-3)) {
		t.Fatal("microwatt SU denied under distributed STP")
	}
}

func TestDistSTPThreeHolders(t *testing.T) {
	dist, sdc, params := distDeployment(t, 3)
	su, err := NewSU(rand.Reader, "su-3", 0, params, sdc.Planner(), dist.GroupKey())
	if err != nil {
		t.Fatal(err)
	}
	if err := dist.RegisterSU(su.ID(), su.PublicKey()); err != nil {
		t.Fatal(err)
	}
	req, err := su.PrepareRequest(map[int]int64{0: 1000}, geo.Disclosure{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := sdc.ProcessRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	grant, err := su.OpenResponse(resp, req, sdc.VerifyKey())
	if err != nil {
		t.Fatal(err)
	}
	if !grant.Granted {
		t.Fatal("quiet SU denied with 3 co-STPs")
	}
}

func TestDistSTPRequiresAllHolders(t *testing.T) {
	// Build a combiner that is missing one share: every conversion
	// must fail rather than silently produce wrong answers.
	params := TestParams(testWatchParams(t))
	sk, err := paillier.GenerateKey(rand.Reader, params.PaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	shares, err := sk.SplitKey(rand.Reader, 3)
	if err != nil {
		t.Fatal(err)
	}
	crippled, err := newDistSTPWithShares(rand.Reader, sk.Public(),
		[]shareService{localShare{shares[0]}, localShare{shares[1]}}) // share 3 missing
	if err != nil {
		t.Fatal(err)
	}
	if err := crippled.RegisterSU("su-x", sk.Public()); err != nil {
		t.Fatal(err)
	}
	ct, err := sk.Public().EncryptInt(rand.Reader, 123)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := crippled.ConvertSigns(&SignRequest{SUID: "su-x", V: []*paillier.Ciphertext{ct}, Slots: 1, SlotBits: 64, AnswerBits: 64}); err == nil {
		t.Fatal("conversion succeeded with a missing share")
	}
}

// brokenShare is a shareService whose holder has gone bad.
type brokenShare struct{ err error }

func (b brokenShare) PartialDecryptBatch([]*paillier.Ciphertext) ([]*paillier.Partial, error) {
	return nil, b.err
}

func TestDistSTPNamesFailingHolder(t *testing.T) {
	sk, err := paillier.GenerateKey(rand.Reader, 256)
	if err != nil {
		t.Fatal(err)
	}
	shares, err := sk.SplitKey(rand.Reader, 2)
	if err != nil {
		t.Fatal(err)
	}
	cause := errors.New("share holder unreachable")
	dist, err := newDistSTPWithShares(rand.Reader, sk.Public(),
		[]shareService{localShare{shares[0]}, brokenShare{cause}})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(dist.holders); got != 2 {
		t.Fatalf("%d share holders, want 2", got)
	}
	if err := dist.RegisterSU("su-b", sk.Public()); err != nil {
		t.Fatal(err)
	}
	ct, err := sk.Public().EncryptInt(rand.Reader, 5)
	if err != nil {
		t.Fatal(err)
	}
	_, err = dist.ConvertSigns(&SignRequest{SUID: "su-b", V: []*paillier.Ciphertext{ct}, Slots: 1, SlotBits: 64, AnswerBits: 64})
	if err == nil || !strings.Contains(err.Error(), "co-STP 1:") {
		t.Fatalf("got %v, want an error naming co-STP 1", err)
	}
	if !errors.Is(err, cause) {
		t.Error("the error does not unwrap to the holder's failure")
	}
}

// slowShare is a shareService whose holder answers after a delay.
type slowShare struct {
	shareService
	delay time.Duration
}

func (s slowShare) PartialDecryptBatch(cts []*paillier.Ciphertext) ([]*paillier.Partial, error) {
	time.Sleep(s.delay)
	return s.shareService.PartialDecryptBatch(cts)
}

// TestDistSTPAsksHoldersConcurrently: the combiner asks every co-STP at
// once, so a round costs the slowest holder, not the sum of them.
func TestDistSTPAsksHoldersConcurrently(t *testing.T) {
	sk, err := paillier.GenerateKey(rand.Reader, 256)
	if err != nil {
		t.Fatal(err)
	}
	shares, err := sk.SplitKey(rand.Reader, 2)
	if err != nil {
		t.Fatal(err)
	}
	const delay = 100 * time.Millisecond
	dist, err := newDistSTPWithShares(rand.Reader, sk.Public(), []shareService{
		slowShare{localShare{shares[0]}, delay},
		slowShare{localShare{shares[1]}, delay},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := dist.RegisterSU("su-s", sk.Public()); err != nil {
		t.Fatal(err)
	}
	ct, err := sk.Public().EncryptInt(rand.Reader, 5)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := dist.ConvertSigns(&SignRequest{SUID: "su-s", V: []*paillier.Ciphertext{ct}, Slots: 1, SlotBits: 64, AnswerBits: 64}); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took >= delay*3/2 {
		t.Fatalf("ConvertSigns over two %v holders took %v: the holders were asked in turn", delay, took)
	}
}

func TestDistSTPValidation(t *testing.T) {
	if _, err := NewDistSTP(rand.Reader, 768, 1); err == nil {
		t.Error("single holder accepted")
	}
	sk, err := paillier.GenerateKey(rand.Reader, 256)
	if err != nil {
		t.Fatal(err)
	}
	shares, err := sk.SplitKey(rand.Reader, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newDistSTPWithShares(rand.Reader, nil,
		[]shareService{localShare{shares[0]}, localShare{shares[1]}}); err == nil {
		t.Error("nil group key accepted")
	}
	dist, err := NewDistSTP(rand.Reader, 256, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dist.ConvertSigns(nil); err == nil {
		t.Error("nil request accepted")
	}
	if err := dist.RegisterSU("", sk.Public()); err == nil {
		t.Error("empty SU id accepted")
	}
	if err := dist.RegisterSU("a", nil); err == nil {
		t.Error("nil key accepted")
	}
	if err := dist.RegisterSU("a", sk.Public()); err != nil {
		t.Fatal(err)
	}
	other, err := paillier.GenerateKey(rand.Reader, 256)
	if err != nil {
		t.Fatal(err)
	}
	if err := dist.RegisterSU("a", other.Public()); err == nil {
		t.Error("key substitution accepted")
	}
	if _, err := dist.SUKey("ghost"); err == nil {
		t.Error("unknown SU lookup succeeded")
	}
}
