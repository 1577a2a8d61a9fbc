// Command puctl acts as a primary user (TV receiver): it sends an
// encrypted channel-reception update to the SDC — tune to a channel
// with a measured signal strength, or switch off.
//
// Usage:
//
//	puctl -id tv-1 -block 42 -channel 7 -signal-mw 1e-4 [-config pisa.json]
//	puctl -id tv-1 -block 42 -off
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"pisa/internal/config"
	"pisa/internal/geo"
	"pisa/internal/node"
	"pisa/internal/pisa"
	"pisa/internal/watch"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "puctl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("puctl", flag.ContinueOnError)
	configPath := fs.String("config", "", "deployment config JSON (defaults built in)")
	sdcAddr := fs.String("sdc", "", "SDC address (sdcd or sdcrouterd), exactly one (overrides config)")
	stpAddr := fs.String("stp", "", "STP address, exactly one (overrides config)")
	id := fs.String("id", "", "PU identifier (required)")
	block := fs.Int("block", -1, "registered receiver block (required)")
	channel := fs.Int("channel", -1, "channel to tune to")
	signalMW := fs.Float64("signal-mw", 0, "measured mean TV signal strength in mW")
	off := fs.Bool("off", false, "switch the receiver off")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sdcTarget, err := config.OneAddr("-sdc", "SDC", *sdcAddr)
	if err != nil {
		return err
	}
	stpTarget, err := config.OneAddr("-stp", "STP", *stpAddr)
	if err != nil {
		return err
	}
	if *id == "" {
		return errors.New("-id is required")
	}
	if *block < 0 {
		return errors.New("-block is required")
	}
	if !*off && (*channel < 0 || *signalMW <= 0) {
		return errors.New("either -off, or both -channel and -signal-mw, are required")
	}
	cfg, err := config.Load(*configPath)
	if err != nil {
		return err
	}
	params, err := cfg.PisaParams()
	if err != nil {
		return err
	}
	rpcOpts, err := cfg.RPC.Options()
	if err != nil {
		return err
	}

	stp, err := node.DialSTPWith(rpcOpts, cmp.Or(stpTarget, cfg.STPAddr))
	if err != nil {
		return err
	}
	defer stp.Close()
	sdc := node.DialSDCWith(rpcOpts, cmp.Or(sdcTarget, cfg.SDCAddr))
	defer sdc.Close()

	eCol, err := sdc.EColumn(geo.BlockID(*block))
	if err != nil {
		return fmt.Errorf("fetch E column: %w", err)
	}
	pu, err := pisa.NewPU(nil, watch.PUID(*id), geo.BlockID(*block), eCol, stp.GroupKey(), params)
	if err != nil {
		return err
	}

	var update *pisa.PUUpdate
	if *off {
		update, err = pu.Off()
	} else {
		update, err = pu.Tune(*channel, params.Watch.Quantize(*signalMW))
	}
	if err != nil {
		return err
	}
	start := time.Now()
	if err := sdc.SendUpdate(update); err != nil {
		return fmt.Errorf("send update: %w", err)
	}
	action := fmt.Sprintf("tuned to channel %d", *channel)
	if *off {
		action = "switched off"
	}
	fmt.Printf("PU %s %s; SDC processed the encrypted update in %v\n",
		*id, action, time.Since(start).Round(time.Millisecond))
	return nil
}
