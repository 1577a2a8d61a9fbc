package pisa_test

import (
	"math/bits"
	"net"
	"testing"
	"time"

	"pisa/internal/geo"
	"pisa/internal/node"
	"pisa/internal/paillier"
	"pisa/internal/pisa"
)

// TestSUKeyTablesAreLean: every copy of an SU key that encrypts — the
// registry's of either STP flavour, and the license issuer's, fetched
// over a socket from a TCP STP — tables the lean comb of two height-6
// blocks, while the group key, under which the SU and the SDC draw a
// nonce per ciphertext, keeps the full comb of eleven. The lean nonces
// are powers of the same H: the SU opens its license and no decryption
// anywhere leaves the short path.
func TestSUKeyTablesAreLean(t *testing.T) {
	params := pisa.TestParams(testWatchParams(t))
	words := (params.PaillierBits + bits.UintSize - 1) / bits.UintSize
	slab := func(blocks, height int) int { return blocks * (1<<height - 1) * 2 * words * bits.UintSize / 8 }
	lean, full := slab(2, 6), slab(11, 8)

	single, err := pisa.NewSTP(nil, params.PaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := node.NewSTPServer(single, nil, time.Minute)
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { srv.Close() })
	dial := func() *node.STPClient {
		c, err := node.DialSTP(ln.Addr().String(), time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	sdcLink, suLink := dial(), dial()

	dist, err := pisa.NewDistSTP(nil, params.PaillierBits, 2)
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name     string
		registry pisa.STPService // where the registered key lives
		link     pisa.STPService // the SDC's link to it
		group    *paillier.PublicKey
		register func(string, *paillier.PublicKey) error
		wire     bool // the router's key crossed a socket
	}{
		{"stp-tcp", single, sdcLink, suLink.GroupKey(), suLink.RegisterSU, true},
		{"dist", dist, dist, dist.GroupKey(), dist.RegisterSU, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			sdc, err := pisa.NewSDC("lean-"+c.name, params, nil, c.link)
			if err != nil {
				t.Fatal(err)
			}
			defer sdc.Close()
			su, err := pisa.NewSU(nil, "su-lean", 7, params, sdc.Planner(), c.group)
			if err != nil {
				t.Fatal(err)
			}
			defer su.Close()
			if err := c.register(su.ID(), su.PublicKey()); err != nil {
				t.Fatal(err)
			}

			_, full0 := paillier.Decrypts()
			req, err := su.PrepareRequest(map[int]int64{1: 100}, geo.Disclosure{})
			if err != nil {
				t.Fatal(err)
			}
			resp, err := sdc.ProcessRequest(req)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := su.OpenResponse(resp, req, sdc.VerifyKey()); err != nil {
				t.Fatalf("SU cannot open its license: %v", err)
			}
			if _, full1 := paillier.Decrypts(); full1 != full0 {
				t.Fatalf("%d full-exponent decryptions: a lean nonce left <H>", full1-full0)
			}

			stored, err := c.registry.SUKey(su.ID())
			if err != nil {
				t.Fatal(err)
			}
			cached, err := sdc.Router().CachedSUKey(su.ID())
			if err != nil {
				t.Fatal(err)
			}
			if c.wire == (cached == stored) {
				t.Fatalf("router key shared with the registry: %v, want %v", cached == stored, !c.wire)
			}
			for _, k := range []struct {
				name string
				pk   *paillier.PublicKey
				want int
			}{
				{"STP registry's SU key", stored, lean},
				{"router's SU key", cached, lean},
				{"SDC's group key", c.link.GroupKey(), full},
				{"SU's group key", c.group, full},
			} {
				if got := k.pk.NonceTableBytes(); got != k.want {
					t.Errorf("%s tables %d B, want %d", k.name, got, k.want)
				}
			}
		})
	}
}
