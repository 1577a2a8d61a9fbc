// Smart-TV day-in-the-life: the workload the paper's introduction
// motivates. A neighbourhood of TV receivers switches channels over a
// simulated evening (2.5 switches/hour, Zipf-popular channels, per
// §VI-A) while WiFi devices keep requesting spectrum. The run shows
//
//   - the encrypted PISA pipeline agreeing decision-for-decision with
//     the plaintext WATCH oracle, and
//   - how many grants WATCH-style fine-grained sharing yields versus
//     the legacy "TV white space" model that protects whole broadcast
//     contours regardless of whether anyone is watching.
//
// Run with:
//
//	go run ./examples/smarttv
package main

import (
	"fmt"
	"log"
	"time"

	"pisa/internal/geo"
	"pisa/internal/pisa"
	"pisa/internal/propagation"
	"pisa/internal/trace"
	"pisa/internal/watch"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	grid, err := geo.NewGrid(8, 6, 10)
	if err != nil {
		return err
	}
	// One moderate TV tower per channel: receivers see fringe-level
	// signals (so active viewers genuinely constrain nearby SUs) and
	// the TVWS baseline has partial contours to protect.
	towers := []watch.TVTransmitter{
		{Location: geo.Point{X: 20, Y: 30}, Channel: 0, EIRPmW: 1e6},
		{Location: geo.Point{X: 60, Y: 30}, Channel: 1, EIRPmW: 1e6},
		{Location: geo.Point{X: 40, Y: 10}, Channel: 2, EIRPmW: 1e6},
	}
	wp := watch.Params{
		Channels:    3,
		Grid:        grid,
		UnitsPerMW:  1e9,
		SUMaxEIRPmW: 4000,
		SMinPUmW:    1e-5,
		DeltaInt:    watch.DeltaFromDB(15, 3),
		Secondary:   propagation.LogDistance{RefLossDB: 40, Exponent: 3.5},
		WorstCase:   propagation.LogDistance{RefLossDB: 55, Exponent: 3.6},
	}
	params := pisa.TestParams(wp)

	// Encrypted world.
	stp, err := pisa.NewSTP(nil, params.PaillierBits)
	if err != nil {
		return err
	}
	sdc, err := pisa.NewSDC("smarttv-sdc", params, towers, stp)
	if err != nil {
		return err
	}
	// Plaintext oracles: WATCH (what PISA must match) and legacy TVWS
	// (conservative contours) for the utilisation comparison.
	oracle, err := watch.NewSystem(wp, towers)
	if err != nil {
		return err
	}
	tvwsParams := wp
	tvwsParams.ConservativeContours = true
	tvws, err := watch.NewSystem(tvwsParams, towers)
	if err != nil {
		return err
	}

	// Workloads: 4 TVs switching all evening, WiFi requests arriving.
	schedule, err := trace.PUSchedule(trace.PUConfig{
		Seed: 7, PUs: 4, Blocks: grid.Blocks(), Channels: wp.Channels,
		SwitchesPerHour: 2.5, OffProbability: 0.15, ZipfS: 1.4,
		Horizon: 3 * time.Hour,
	})
	if err != nil {
		return err
	}
	requests, err := trace.SUWorkload(trace.SUConfig{
		Seed: 9, Blocks: grid.Blocks(), Channels: wp.Channels,
		MaxEIRPUnits: wp.Quantize(wp.SUMaxEIRPmW), RequestsPerHour: 8,
		ChannelsPerRequest: 1.5, Horizon: 3 * time.Hour,
	})
	if err != nil {
		return err
	}
	fmt.Printf("evening schedule: %d TV events, %d WiFi requests over 3 h\n\n",
		len(schedule), len(requests))

	// PU actors (encrypted side).
	pus := make(map[watch.PUID]*pisa.PU)
	suByID := make(map[string]*pisa.SU)

	var (
		pisaGrants, watchGrants, tvwsGrants int
		disagreements                       int
		processed                           int
	)
	si := 0
	for _, req := range requests {
		// Replay all TV events that happened before this request —
		// through the encrypted pipeline and both oracles.
		for ; si < len(schedule) && schedule[si].At <= req.At; si++ {
			ev := schedule[si]
			pu := pus[ev.PU]
			if pu == nil {
				eCol, err := sdc.EColumn(ev.Block)
				if err != nil {
					return err
				}
				if pu, err = pisa.NewPU(nil, ev.PU, ev.Block, eCol, stp.GroupKey(), params); err != nil {
					return err
				}
				pus[ev.PU] = pu
			}
			var update *pisa.PUUpdate
			reg := watch.Registration{Block: ev.Block, Channel: ev.Channel}
			if ev.Channel < 0 {
				update, err = pu.Off()
				reg.Channel = -1
			} else {
				sig, err := oracle.SignalAt(ev.Channel, ev.Block)
				if err != nil {
					return err
				}
				if sig <= 0 {
					sig = wp.Quantize(wp.SMinPUmW) // fringe viewer
				}
				reg.SignalUnits = sig
				update, err = pu.Tune(ev.Channel, sig)
				if err != nil {
					return err
				}
			}
			if err != nil {
				return err
			}
			// The oracle may reject a conflicting cell; skip the
			// event in both worlds to stay in lockstep.
			if err := oracle.UpdatePU(ev.PU, reg); err != nil {
				continue
			}
			if err := tvws.UpdatePU(ev.PU, reg); err != nil {
				return err
			}
			if err := sdc.HandlePUUpdate(update); err != nil {
				return err
			}
		}

		// The SU side: register on first sight, then run the full
		// encrypted request.
		su := suByID[req.SU]
		if su == nil {
			if su, err = pisa.NewSU(nil, req.SU, req.Block, params, sdc.Planner(), stp.GroupKey()); err != nil {
				return err
			}
			if err := stp.RegisterSU(su.ID(), su.PublicKey()); err != nil {
				return err
			}
			suByID[req.SU] = su
		}
		encReq, err := su.PrepareRequest(req.EIRPUnits, geo.Disclosure{})
		if err != nil {
			return err
		}
		resp, err := sdc.ProcessRequest(encReq)
		if err != nil {
			return err
		}
		grant, err := su.OpenResponse(resp, encReq, sdc.VerifyKey())
		if err != nil {
			return err
		}
		wDec, err := oracle.Evaluate(watch.Request{Block: req.Block, EIRPUnits: req.EIRPUnits})
		if err != nil {
			return err
		}
		tDec, err := tvws.Evaluate(watch.Request{Block: req.Block, EIRPUnits: req.EIRPUnits})
		if err != nil {
			return err
		}
		processed++
		if grant.Granted {
			pisaGrants++
		}
		if wDec.Granted {
			watchGrants++
		}
		if tDec.Granted {
			tvwsGrants++
		}
		if grant.Granted != wDec.Granted {
			disagreements++
		}
		marker := "denied "
		if grant.Granted {
			marker = "GRANTED"
		}
		fmt.Printf("t=%7s  %s at block %2d asks %d channel(s): %s (oracle %v, tvws %v)\n",
			req.At.Round(time.Second), req.SU, req.Block, len(req.EIRPUnits),
			marker, wDec.Granted, tDec.Granted)
	}

	fmt.Printf("\n%d requests: PISA granted %d, WATCH oracle %d, legacy TVWS %d\n",
		processed, pisaGrants, watchGrants, tvwsGrants)
	fmt.Printf("PISA vs WATCH disagreements: %d (must be 0)\n", disagreements)
	if watchGrants > tvwsGrants {
		fmt.Printf("fine-grained sharing admitted %d requests the white-space model refused\n",
			watchGrants-tvwsGrants)
	}
	if disagreements > 0 {
		return fmt.Errorf("encrypted pipeline diverged from the plaintext oracle")
	}
	return nil
}
