// SDR lab: the paper's §VI-B hardware experiment (Figures 7-11)
// reproduced on the airsim substrate. Two secondary users and one
// primary receiver share WiFi channel 6 (2.437 GHz); the PISA control
// plane decides who may transmit, and the simulated PHY shows the
// same observable effects the USRP testbed showed:
//
//	Scenario 1 (Fig. 8):  both SUs transmit; the PU sees two packets
//	                      with distinct amplitudes (different ranges).
//	Scenario 2 (Fig. 10): the PU claims the channel; the SDC tells the
//	                      SUs to stop.
//	Scenario 3 (Fig. 11): both SUs send encrypted transmission
//	                      requests; the SDC acknowledges.
//	Scenario 4 (Fig. 9):  only the far (low-interference) SU is
//	                      granted; it sends ~11 packets in 20 ms.
//
// Run with:
//
//	go run ./examples/sdrlab
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"pisa/internal/airsim"
	"pisa/internal/geo"
	"pisa/internal/pisa"
	"pisa/internal/watch"
)

func main() {
	artifacts := flag.String("artifacts", "", "directory for CSV figure data (empty = don't write)")
	flag.Parse()
	if err := run(*artifacts); err != nil {
		log.Fatal(err)
	}
}

// writeCSV saves one figure's raw data when an artifact dir is set.
func writeCSV(dir, name string, write func(*os.File) error) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := write(f); err != nil {
		return err
	}
	fmt.Printf("  wrote %s\n", filepath.Join(dir, name))
	return nil
}

func run(artifacts string) error {
	// ---- PHY: one 20 MHz channel, three radios on a bench. ----
	sim, err := airsim.New(airsim.DefaultConfig())
	if err != nil {
		return err
	}
	// SU1 sits 2 m from the PU, SU2 sits 9 m away.
	for _, n := range []airsim.Node{
		{ID: "pu", Pos: geo.Point{X: 5, Y: 5}, TxPowerMW: 0},
		{ID: "su1", Pos: geo.Point{X: 7, Y: 5}, TxPowerMW: 100},
		{ID: "su2", Pos: geo.Point{X: 14, Y: 5}, TxPowerMW: 100},
	} {
		if err := sim.AddNode(n); err != nil {
			return err
		}
	}

	// ---- Control plane: a one-channel PISA deployment over the
	// same bench geometry (2 m blocks). ----
	grid, err := geo.NewGrid(10, 6, 2)
	if err != nil {
		return err
	}
	wp := watch.Params{
		Channels:    1, // "channel 6" is the only channel here
		Grid:        grid,
		UnitsPerMW:  1e9,
		SUMaxEIRPmW: 100,
		SMinPUmW:    1e-6,
		DeltaInt:    watch.DeltaFromDB(10, 2),
		Secondary:   sim.Config().Model,
		WorstCase:   sim.Config().Model,
	}
	params := pisa.TestParams(wp)
	stp, err := pisa.NewSTP(nil, params.PaillierBits)
	if err != nil {
		return err
	}
	sdc, err := pisa.NewSDC("lab-sdc", params, nil, stp)
	if err != nil {
		return err
	}
	puBlock, err := grid.Block(geo.Point{X: 5, Y: 5})
	if err != nil {
		return err
	}
	su1Block, err := grid.Block(geo.Point{X: 7, Y: 5})
	if err != nil {
		return err
	}
	su2Block, err := grid.Block(geo.Point{X: 14, Y: 5})
	if err != nil {
		return err
	}

	// ---- Scenario 1: PU idle; SU1 and SU2 each send a packet. ----
	fmt.Println("Scenario 1 (Figure 8): two SU packets at the monitoring PU")
	if err := sim.SendPacket("su1", 0, 100*time.Microsecond); err != nil {
		return err
	}
	if err := sim.SendPacket("su2", 200*time.Microsecond, 100*time.Microsecond); err != nil {
		return err
	}
	trace, err := sim.Trace("pu", 0, 350*time.Microsecond, 700)
	if err != nil {
		return err
	}
	count := airsim.CountPackets(trace, 10*sim.Config().NoiseFloorMW)
	if err := writeCSV(artifacts, "figure8_waveform.csv", func(f *os.File) error {
		return airsim.WriteTraceCSV(f, trace)
	}); err != nil {
		return err
	}
	a1, err := sim.ReceivedPowerMW("pu", 50*time.Microsecond)
	if err != nil {
		return err
	}
	a2, err := sim.ReceivedPowerMW("pu", 250*time.Microsecond)
	if err != nil {
		return err
	}
	fmt.Printf("  %d packets within 0.35 ms; amplitudes %.3g vs %.3g mW (near SU louder, as in Fig. 8)\n\n",
		count, a1, a2)

	// ---- Scenario 2: PU claims the channel. ----
	fmt.Println("Scenario 2 (Figure 10): PU update and stop notification")
	eCol, err := sdc.EColumn(puBlock)
	if err != nil {
		return err
	}
	pu, err := pisa.NewPU(nil, "pu", puBlock, eCol, stp.GroupKey(), params)
	if err != nil {
		return err
	}
	// The PU measures a -23 dBm signal on the channel — strong
	// enough that a far SU fits under the interference budget while
	// a near one does not.
	update, err := pu.Tune(0, wp.Quantize(5e-3))
	if err != nil {
		return err
	}
	sim.Record(400*time.Microsecond, "pu", "sdc", "encrypted channel update")
	if err := sdc.HandlePUUpdate(update); err != nil {
		return err
	}
	sim.Record(450*time.Microsecond, "sdc", "su1,su2", "stop transmitting: channel claimed")
	fmt.Println("  PU -> SDC: encrypted update; SDC -> SUs: stop (SUs go quiet)")
	fmt.Println()

	// ---- Scenario 3: both SUs request the channel. ----
	fmt.Println("Scenario 3 (Figure 11): encrypted transmission requests")
	su1, err := pisa.NewSU(nil, "su1", su1Block, params, sdc.Planner(), stp.GroupKey())
	if err != nil {
		return err
	}
	su2, err := pisa.NewSU(nil, "su2", su2Block, params, sdc.Planner(), stp.GroupKey())
	if err != nil {
		return err
	}
	for _, su := range []*pisa.SU{su1, su2} {
		if err := stp.RegisterSU(su.ID(), su.PublicKey()); err != nil {
			return err
		}
	}
	req1, err := su1.PrepareRequest(map[int]int64{0: wp.Quantize(100)}, geo.Disclosure{})
	if err != nil {
		return err
	}
	req2, err := su2.PrepareRequest(map[int]int64{0: wp.Quantize(100)}, geo.Disclosure{})
	if err != nil {
		return err
	}
	sim.Record(500*time.Microsecond, "su1", "sdc", "transmission request")
	sim.Record(520*time.Microsecond, "su2", "sdc", "transmission request")
	sim.Record(540*time.Microsecond, "sdc", "su1,su2", "ack: requests received")
	fmt.Printf("  SU1 and SU2 -> SDC: requests (%d ciphertexts each); SDC -> SUs: ack\n\n",
		req1.Ciphertexts())

	// ---- Scenario 4: the SDC decides; the winner transmits. ----
	fmt.Println("Scenario 4 (Figure 9): selective grant and the packet train")
	resp1, err := sdc.ProcessRequest(req1)
	if err != nil {
		return err
	}
	resp2, err := sdc.ProcessRequest(req2)
	if err != nil {
		return err
	}
	grant1, err := su1.OpenResponse(resp1, req1, sdc.VerifyKey())
	if err != nil {
		return err
	}
	grant2, err := su2.OpenResponse(resp2, req2, sdc.VerifyKey())
	if err != nil {
		return err
	}
	fmt.Printf("  SU1 (2 m from PU):  granted=%v\n", grant1.Granted)
	fmt.Printf("  SU2 (9 m from PU):  granted=%v\n", grant2.Granted)
	if grant1.Granted || !grant2.Granted {
		return fmt.Errorf("expected only the far SU to win (got su1=%v su2=%v)",
			grant1.Granted, grant2.Granted)
	}
	// SU2 transmits its train: 11 packets inside 20 ms, as in Fig. 9.
	trainStart := time.Millisecond
	if err := sim.SendPacketTrain("su2", trainStart, 800*time.Microsecond, 1800*time.Microsecond, 11); err != nil {
		return err
	}
	trace, err = sim.Trace("pu", trainStart, trainStart+20*time.Millisecond, 4000)
	if err != nil {
		return err
	}
	packets := airsim.CountPackets(trace, 10*sim.Config().NoiseFloorMW)
	fmt.Printf("  granted SU2 sent %d packets within 20 ms (paper: ~11)\n\n", packets)
	if err := writeCSV(artifacts, "figure9_waveform.csv", func(f *os.File) error {
		return airsim.WriteTraceCSV(f, trace)
	}); err != nil {
		return err
	}
	if err := writeCSV(artifacts, "figures10_11_events.csv", func(f *os.File) error {
		return sim.WriteEventsCSV(f)
	}); err != nil {
		return err
	}

	fmt.Println("control-plane event log:")
	for _, ev := range sim.Events() {
		fmt.Printf("  t=%-8v %-5s -> %-9s %s\n", ev.T, ev.From, ev.To, ev.What)
	}
	return nil
}
