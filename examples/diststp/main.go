// Distributed STP: the paper's §VII future work, running. The single
// semi-trusted third party is replaced by two co-STPs, each holding
// only an additive share of the group decryption exponent. Neither
// can decrypt anything alone — a compromised co-STP (or a subpoena
// against one operator) yields nothing — yet the spectrum decisions
// come out exactly the same.
//
// The co-STPs here are real TCP servers, and each share is served by
// two replicas: mid-run one replica is killed, and the sign
// conversions keep flowing because the combiner's client fails over
// to the surviving replica of the same share.
//
// Run with:
//
//	go run ./examples/diststp
package main

import (
	"fmt"
	"log"
	"net"
	"time"

	"pisa/internal/geo"
	"pisa/internal/node"
	"pisa/internal/paillier"
	"pisa/internal/pisa"
	"pisa/internal/propagation"
	"pisa/internal/watch"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// serveShare boots one co-STP replica on an ephemeral loopback port.
func serveShare(share *paillier.KeyShare) (*node.ShareServer, string, error) {
	srv := node.NewShareServer(share, nil, 30*time.Second)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	go func() { _ = srv.Serve(ln) }()
	return srv, ln.Addr().String(), nil
}

func run() error {
	grid, err := geo.NewGrid(10, 6, 10)
	if err != nil {
		return err
	}
	wp := watch.Params{
		Channels:    5,
		Grid:        grid,
		UnitsPerMW:  1e9,
		SUMaxEIRPmW: 4000,
		SMinPUmW:    1e-5,
		DeltaInt:    watch.DeltaFromDB(15, 3),
		Secondary:   propagation.LogDistance{RefLossDB: 40, Exponent: 3.5},
		WorstCase:   propagation.LogDistance{RefLossDB: 60, Exponent: 4},
	}
	params := pisa.TestParams(wp)

	// Key ceremony: generate, split into two shares, forget the key.
	// In production the dealer runs in an enclave or is replaced by a
	// distributed key-generation ceremony.
	fmt.Println("dealer ceremony: splitting the group key into 2 shares...")
	sk, err := paillier.GenerateKey(nil, params.PaillierBits)
	if err != nil {
		return err
	}
	shares, err := sk.SplitKey(nil, 2)
	if err != nil {
		return err
	}
	group := sk.Public()
	sk = nil // the full key is never used again

	// Demonstrate the security property directly: one share alone
	// cannot decrypt.
	probe, err := group.EncryptInt(nil, 42)
	if err != nil {
		return err
	}
	partialA, err := pisa.NewLocalShare(shares[0]).PartialDecryptBatch([]*paillier.Ciphertext{probe})
	if err != nil {
		return err
	}
	if _, err := paillier.CombinePartials(group, partialA); err != nil {
		fmt.Println("co-STP A alone cannot decrypt: ", err)
	} else {
		return fmt.Errorf("single share decrypted; the split is broken")
	}

	// Each share goes behind TWO replica servers (same share, distinct
	// processes in a real deployment). Replication is per share:
	// replicas of different shares are never interchangeable.
	fmt.Println("serving each share from 2 TCP replicas...")
	var clients []*node.ShareClient
	services := make([]pisa.ShareService, len(shares))
	var killable *node.ShareServer
	opts := node.Options{
		CallTimeout: 30 * time.Second,
		Retry:       node.RetryPolicy{MaxAttempts: 4, BaseDelay: 50 * time.Millisecond},
		Breaker:     node.BreakerConfig{FailureThreshold: 1, Cooldown: 5 * time.Second},
	}
	for i, share := range shares {
		var addrs []string
		for r := 0; r < 2; r++ {
			srv, addr, err := serveShare(share)
			if err != nil {
				return err
			}
			defer srv.Close()
			addrs = append(addrs, addr)
			if i == 0 && r == 0 {
				killable = srv
			}
		}
		cli := node.DialShareWith(opts, addrs...)
		defer cli.Close()
		clients = append(clients, cli)
		services[i] = cli
		fmt.Printf("co-STP %c replicas: %v\n", 'A'+i, addrs)
	}

	// The combiner holds no key material; it reaches the co-STPs over
	// the network. The rest of the system is oblivious to the change:
	// the SDC takes the combiner wherever it took the STP.
	dist, err := pisa.NewDistSTPWithShares(nil, group, services)
	if err != nil {
		return err
	}
	sdc, err := pisa.NewSDC("dist-sdc", params, nil, dist)
	if err != nil {
		return err
	}
	eCol, err := sdc.EColumn(21)
	if err != nil {
		return err
	}
	tv, err := pisa.NewPU(nil, "tv", 21, eCol, group, params)
	if err != nil {
		return err
	}
	update, err := tv.Tune(2, wp.Quantize(wp.SMinPUmW))
	if err != nil {
		return err
	}
	if err := sdc.HandlePUUpdate(update); err != nil {
		return err
	}
	su, err := pisa.NewSU(nil, "hotspot", 20, params, sdc.Planner(), group)
	if err != nil {
		return err
	}
	if err := dist.RegisterSU(su.ID(), su.PublicKey()); err != nil {
		return err
	}
	ask := func(mw float64) (bool, error) {
		req, err := su.PrepareRequest(map[int]int64{2: wp.Quantize(mw)}, geo.Disclosure{})
		if err != nil {
			return false, err
		}
		resp, err := sdc.ProcessRequest(req)
		if err != nil {
			return false, err
		}
		grant, err := su.OpenResponse(resp, req, sdc.VerifyKey())
		if err != nil {
			return false, err
		}
		return grant.Granted, nil
	}
	big, err := ask(4000)
	if err != nil {
		return err
	}
	fmt.Printf("4 W next to the active TV: granted=%v\n", big)

	// Kill one replica of share A mid-run. The next conversion rides
	// the retry + failover path to the surviving replica.
	fmt.Println("killing one replica of co-STP A...")
	if err := killable.Close(); err != nil {
		return err
	}
	small, err := ask(1)
	if err != nil {
		return err
	}
	fmt.Printf("1 mW next to the active TV: granted=%v (served despite the dead replica)\n", small)
	stats := clients[0].Stats()
	fmt.Printf("co-STP A client: %d calls, %d transport faults, %d failovers\n",
		stats.Calls, stats.TransportFaults, stats.Failovers)
	if big || !small {
		return fmt.Errorf("decisions wrong under distributed STP")
	}
	fmt.Println("identical decisions, no single party able to decrypt — §VII achieved")
	return nil
}
