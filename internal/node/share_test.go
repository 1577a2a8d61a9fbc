package node

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/gob"
	"net"
	"testing"
	"time"

	"pisa/internal/geo"
	"pisa/internal/paillier"
	"pisa/internal/pisa"
	"pisa/internal/wire"
)

func TestKeyShareGobRoundTrip(t *testing.T) {
	sk, err := paillier.GenerateKey(rand.Reader, 256)
	if err != nil {
		t.Fatal(err)
	}
	shares, err := sk.SplitKey(rand.Reader, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(shares[0]); err != nil {
		t.Fatalf("encode: %v", err)
	}
	var back paillier.KeyShare
	if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatalf("decode: %v", err)
	}
	// The decoded share must still produce valid partials.
	ct, err := sk.Public().EncryptInt(rand.Reader, -314)
	if err != nil {
		t.Fatal(err)
	}
	pa, err := back.PartialDecrypt(ct)
	if err != nil {
		t.Fatalf("partial with decoded share: %v", err)
	}
	pb, err := shares[1].PartialDecrypt(ct)
	if err != nil {
		t.Fatal(err)
	}
	m, err := paillier.CombinePartials(sk.Public(), []*paillier.Partial{pa, pb})
	if err != nil {
		t.Fatalf("combine: %v", err)
	}
	if m.Int64() != -314 {
		t.Fatalf("decoded-share decryption = %s, want -314", m)
	}
	var corrupt paillier.KeyShare
	if err := corrupt.GobDecode([]byte("garbage")); err == nil {
		t.Error("garbage share accepted")
	}
}

// TestDistributedSTPOverTCP runs the full no-single-STP deployment
// with each co-STP behind its own TCP server: dealer splits the key,
// two share servers hold the halves, the combiner (DistSTP) reaches
// them through ShareClients, and the SDC uses the combiner as its
// STPService.
func TestDistributedSTPOverTCP(t *testing.T) {
	wp := testWatchParams(t)
	params := pisa.TestParams(wp)

	// Dealer ceremony: generate, split, hand out, forget.
	group, err := paillier.GenerateKey(rand.Reader, params.PaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	shares, err := group.SplitKey(rand.Reader, 2)
	if err != nil {
		t.Fatal(err)
	}
	var holders []pisa.ShareService
	for _, share := range shares {
		srv := NewShareServer(share, nil, 30*time.Second)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = srv.Serve(ln) }()
		t.Cleanup(func() { srv.Close() })
		cli := DialShareWith(Options{CallTimeout: 30 * time.Second}, ln.Addr().String())
		t.Cleanup(func() { cli.Close() })
		holders = append(holders, cli)
	}
	dist, err := pisa.NewDistSTPWithShares(rand.Reader, group.Public(), holders)
	if err != nil {
		t.Fatal(err)
	}
	sdc, err := pisa.NewSDC("sdc-dist-tcp", params, nil, dist)
	if err != nil {
		t.Fatal(err)
	}
	su, err := pisa.NewSU(rand.Reader, "su-1", 7, params, sdc.Planner(), dist.GroupKey())
	if err != nil {
		t.Fatal(err)
	}
	if err := dist.RegisterSU(su.ID(), su.PublicKey()); err != nil {
		t.Fatal(err)
	}
	// PU constrains channel 1; the decision must be computed by the
	// two networked co-STPs jointly.
	eCol, err := sdc.EColumn(8)
	if err != nil {
		t.Fatal(err)
	}
	pu, err := pisa.NewPU(rand.Reader, "tv", 8, eCol, dist.GroupKey())
	if err != nil {
		t.Fatal(err)
	}
	update, err := pu.Tune(1, wp.Quantize(wp.SMinPUmW))
	if err != nil {
		t.Fatal(err)
	}
	if err := sdc.HandlePUUpdate(update); err != nil {
		t.Fatal(err)
	}
	ask := func(eirpMW float64) bool {
		t.Helper()
		req, err := su.PrepareRequest(map[int]int64{1: wp.Quantize(eirpMW)}, geo.Disclosure{})
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
	if ask(4000) {
		t.Fatal("interfering SU granted over networked co-STPs")
	}
	if !ask(1e-3) {
		t.Fatal("quiet SU denied over networked co-STPs")
	}
}

func TestShareServerRejectsOtherKinds(t *testing.T) {
	sk, err := paillier.GenerateKey(rand.Reader, 256)
	if err != nil {
		t.Fatal(err)
	}
	shares, err := sk.SplitKey(rand.Reader, 2)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewShareServer(shares[0], nil, 5*time.Second)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { srv.Close() })
	cli := DialShareWith(Options{CallTimeout: 5 * time.Second}, ln.Addr().String())
	defer cli.Close()
	// Empty batch is an application error.
	if _, err := cli.PartialDecryptBatch(nil); err == nil {
		t.Error("empty batch accepted")
	}
	// A co-STP answers only partial requests: wrong kinds come back
	// as remote errors (checked via the raw wire here).
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn := wire.NewConn(raw, 5*time.Second)
	defer conn.Close()
	if _, err := conn.CallContext(context.Background(), &wire.Envelope{Kind: wire.KindGroupKeyRequest}, wire.KindGroupKey); err == nil {
		t.Error("co-STP answered a group-key request; it must hold no group key")
	}
}
