// Distributed STP: the paper's §VII future work, in process. The single
// semi-trusted third party is replaced by two co-STPs, each holding
// only an additive share of the group decryption exponent, and a
// combiner that multiplies their partial decryptions. The SDC takes the
// combiner wherever it took the STP, and every decision is judged
// against the plaintext WATCH oracle fed the same PU; a disagreement
// exits 1.
//
// Run with:
//
//	go run ./examples/diststp
package main

import (
	"fmt"
	"log"

	"pisa/internal/geo"
	"pisa/internal/pisa"
	"pisa/internal/propagation"
	"pisa/internal/watch"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
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
	oracle, err := watch.NewSystem(wp, nil)
	if err != nil {
		return err
	}

	// Key ceremony: generate, split into two shares, forget the key.
	// In production the dealer runs in an enclave or is replaced by a
	// distributed key-generation ceremony.
	fmt.Println("dealer ceremony: splitting the group key between 2 co-STPs...")
	dist, err := pisa.NewDistSTP(nil, params.PaillierBits, 2)
	if err != nil {
		return err
	}
	group := dist.GroupKey()
	sdc, err := pisa.NewSDC("dist-sdc", params, nil, dist)
	if err != nil {
		return err
	}

	// A TV at block 21 watches channel 2, in both worlds.
	const tvBlock, channel = 21, 2
	eCol, err := sdc.EColumn(tvBlock)
	if err != nil {
		return err
	}
	tv, err := pisa.NewPU(nil, "tv", tvBlock, eCol, group, params)
	if err != nil {
		return err
	}
	signal := wp.Quantize(wp.SMinPUmW)
	update, err := tv.Tune(channel, signal)
	if err != nil {
		return err
	}
	if err := sdc.HandlePUUpdate(update); err != nil {
		return err
	}
	if err := oracle.UpdatePU("tv", watch.Registration{Block: tvBlock, Channel: channel, SignalUnits: signal}); err != nil {
		return err
	}

	const suBlock = 20
	su, err := pisa.NewSU(nil, "hotspot", suBlock, params, sdc.Planner(), group)
	if err != nil {
		return err
	}
	if err := dist.RegisterSU(su.ID(), su.PublicKey()); err != nil {
		return err
	}
	for _, mw := range []float64{4000, 1} {
		eirp := map[int]int64{channel: wp.Quantize(mw)}
		req, err := su.PrepareRequest(eirp, geo.Disclosure{})
		if err != nil {
			return err
		}
		resp, err := sdc.ProcessRequest(req)
		if err != nil {
			return err
		}
		grant, err := su.OpenResponse(resp, req, sdc.VerifyKey())
		if err != nil {
			return err
		}
		want, err := oracle.Evaluate(watch.Request{Block: suBlock, EIRPUnits: eirp})
		if err != nil {
			return err
		}
		fmt.Printf("%g mW next to the active TV: granted=%v (WATCH oracle: %v)\n", mw, grant.Granted, want.Granted)
		if grant.Granted != want.Granted {
			return fmt.Errorf("distributed STP decided granted=%v at %g mW, the WATCH oracle granted=%v", grant.Granted, mw, want.Granted)
		}
	}
	fmt.Println("identical decisions, no single party able to decrypt — §VII achieved")
	return nil
}
