// Quickstart: one full PISA round in a single process.
//
// A TV receiver (PU) tunes to a channel, a WiFi device (SU) asks the
// spectrum controller (SDC) for permission to transmit, and the SDC —
// seeing only ciphertexts — answers with a masked license that only
// the SU can open. Run it with:
//
//	go run ./examples/quickstart
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
	// 1. Deployment parameters: a 10x6 grid of 10 m blocks, 5 TV
	//    channels. (TestParams keys are small so this demo runs in
	//    seconds; production uses pisa.DefaultParams = 2048-bit.)
	grid, err := geo.NewGrid(10, 6, 10)
	if err != nil {
		return err
	}
	wp := watch.Params{
		Channels:    5,
		Grid:        grid,
		UnitsPerMW:  1e9, // fixed-point: 1 unit = 1 picowatt-ish
		SUMaxEIRPmW: 4000,
		SMinPUmW:    1e-5,
		DeltaInt:    watch.DeltaFromDB(15, 3),
		Secondary:   propagation.LogDistance{RefLossDB: 40, Exponent: 3.5},
		WorstCase:   propagation.LogDistance{RefLossDB: 60, Exponent: 4},
	}
	params := pisa.TestParams(wp)

	// 2. The semi-trusted third party holds the group secret key.
	stp, err := pisa.NewSTP(nil, params.PaillierBits)
	if err != nil {
		return err
	}
	// 3. The SDC precomputes public data and encrypts its budgets.
	sdc, err := pisa.NewSDC("quickstart-sdc", params, nil, stp)
	if err != nil {
		return err
	}
	fmt.Println("deployment up: SDC + STP, 5 channels x 60 blocks")

	// 4. A TV receiver at block 21 tunes to channel 2. Only the
	//    ciphertexts leave the device; the SDC cannot tell which
	//    channel (or even whether it is on).
	eCol, err := sdc.EColumn(21)
	if err != nil {
		return err
	}
	tv, err := pisa.NewPU(nil, "living-room-tv", 21, eCol, stp.GroupKey(), params)
	if err != nil {
		return err
	}
	update, err := tv.Tune(2, wp.Quantize(wp.SMinPUmW)) // weak fringe reception
	if err != nil {
		return err
	}
	if err := sdc.HandlePUUpdate(update); err != nil {
		return err
	}
	fmt.Println("TV receiver tuned (encrypted update absorbed by the SDC)")

	// 5. A WiFi hotspot one block away wants channel 2 at full power.
	su, err := pisa.NewSU(nil, "cafe-hotspot", 20, params, sdc.Planner(), stp.GroupKey())
	if err != nil {
		return err
	}
	if err := stp.RegisterSU(su.ID(), su.PublicKey()); err != nil {
		return err
	}
	ask := func(eirpMW float64) (bool, error) {
		req, err := su.PrepareRequest(map[int]int64{2: wp.Quantize(eirpMW)}, geo.Disclosure{})
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

	granted, err := ask(4000)
	if err != nil {
		return err
	}
	fmt.Printf("hotspot asks for 4 W on channel 2: granted=%v (TV is watching!)\n", granted)

	granted, err = ask(1)
	if err != nil {
		return err
	}
	fmt.Printf("hotspot asks for 1 mW on channel 2: granted=%v (fits the budget)\n", granted)

	// 6. The TV switches off; full power is available again.
	off, err := tv.Off()
	if err != nil {
		return err
	}
	if err := sdc.HandlePUUpdate(off); err != nil {
		return err
	}
	granted, err = ask(4000)
	if err != nil {
		return err
	}
	fmt.Printf("TV off, hotspot asks for 4 W again: granted=%v\n", granted)
	fmt.Println("throughout, the SDC saw only ciphertexts — no channels, no locations, no decisions")
	return nil
}
