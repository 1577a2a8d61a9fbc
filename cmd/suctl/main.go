// Command suctl acts as a secondary user: it prepares an encrypted
// transmission request, registers its key with the STP, submits the
// request to the SDC and reports whether a valid license came back.
//
// Usage:
//
//	suctl -id su-1 -block 17 -request "1=100,2=50" [-disclose-rows 0:3]
//
// The -request flag maps channel to EIRP in mW. -disclose-rows trades
// location privacy for speed (§VI-A): only the named grid rows are
// shipped, so the SDC learns the SU is somewhere inside them.
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"pisa/internal/config"
	"pisa/internal/geo"
	"pisa/internal/node"
	"pisa/internal/pisa"
	"pisa/internal/watch"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "suctl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("suctl", flag.ContinueOnError)
	configPath := fs.String("config", "", "deployment config JSON (defaults built in)")
	sdcAddr := fs.String("sdc", "", "SDC address (sdcd or sdcrouterd), exactly one (overrides config)")
	stpAddr := fs.String("stp", "", "STP address, exactly one (overrides config)")
	id := fs.String("id", "", "SU identifier (required)")
	block := fs.Int("block", -1, "SU location block (required, stays private)")
	request := fs.String("request", "", "channel=eirpMW pairs, e.g. \"1=100,2=50\" (required)")
	discloseRows := fs.String("disclose-rows", "", "optional from:to grid-row band to disclose")
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
	cfg, err := config.Load(*configPath)
	if err != nil {
		return err
	}
	if *id == "" || *block < 0 || *request == "" {
		return errors.New("-id, -block and -request are required")
	}
	params, err := cfg.PisaParams()
	if err != nil {
		return err
	}
	rpcOpts, err := cfg.RPC.Options()
	if err != nil {
		return err
	}
	eirp, err := parseRequest(*request, params.Watch)
	if err != nil {
		return err
	}
	disclosure := geo.Disclosure{}
	if *discloseRows != "" {
		from, to, err := parseRows(*discloseRows)
		if err != nil {
			return err
		}
		if disclosure, err = params.Watch.Grid.RowBand(from, to); err != nil {
			return err
		}
	}

	stp, err := node.DialSTPWith(rpcOpts, cmp.Or(stpTarget, cfg.STPAddr))
	if err != nil {
		return err
	}
	defer stp.Close()
	// Paper-scale request processing takes minutes; give the SDC call
	// at least the historical 10-minute window.
	sdcOpts := rpcOpts
	sdcOpts.CallTimeout = max(sdcOpts.CallTimeout, 10*time.Minute)
	sdc := node.DialSDCWith(sdcOpts, cmp.Or(sdcTarget, cfg.SDCAddr))
	defer sdc.Close()
	planner, err := watch.NewPlanner(params.Watch)
	if err != nil {
		return err
	}

	fmt.Printf("generating %d-bit key pair...\n", params.PaillierBits)
	su, err := pisa.NewSU(nil, *id, geo.BlockID(*block), params, planner, stp.GroupKey())
	if err != nil {
		return err
	}
	if err := stp.RegisterSU(su.ID(), su.PublicKey()); err != nil {
		return fmt.Errorf("register with STP: %w", err)
	}

	prepStart := time.Now()
	req, err := su.PrepareRequest(eirp, disclosure)
	if err != nil {
		return err
	}
	prep := time.Since(prepStart)
	fmt.Printf("request prepared in %v (%d ciphertexts, %.2f MB)\n",
		prep.Round(time.Millisecond), req.Ciphertexts(),
		float64(req.SizeBytes())/(1<<20))

	verifyKey, err := sdc.VerifyKey()
	if err != nil {
		return err
	}
	procStart := time.Now()
	resp, err := sdc.SendRequest(req)
	if err != nil {
		return fmt.Errorf("send request: %w", err)
	}
	proc := time.Since(procStart)
	grant, err := su.OpenResponse(resp, req, verifyKey)
	if err != nil {
		return err
	}
	fmt.Printf("SDC processed the request in %v\n", proc.Round(time.Millisecond))
	if grant.Granted {
		fmt.Printf("GRANTED: license serial %d from %q, valid until %s\n",
			grant.License.Serial, grant.License.Issuer,
			time.Unix(grant.License.ExpiresUnix, 0).Format(time.RFC3339))
		return nil
	}
	fmt.Println("DENIED: no valid license signature recovered " +
		"(some primary user's interference budget would be exceeded)")
	return nil
}

// parseRequest decodes "1=100,2=50" into channel -> EIRP units.
func parseRequest(s string, wp watch.Params) (map[int]int64, error) {
	out := make(map[int]int64)
	for _, pair := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			return nil, fmt.Errorf("bad request entry %q (want channel=eirpMW)", pair)
		}
		ch, err := strconv.Atoi(k)
		if err != nil {
			return nil, fmt.Errorf("bad channel %q: %w", k, err)
		}
		mw, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return nil, fmt.Errorf("bad EIRP %q: %w", v, err)
		}
		out[ch] = wp.Quantize(mw)
	}
	return out, nil
}

// parseRows decodes "from:to".
func parseRows(s string) (int, int, error) {
	a, b, ok := strings.Cut(s, ":")
	if !ok {
		return 0, 0, fmt.Errorf("bad -disclose-rows %q (want from:to)", s)
	}
	from, err := strconv.Atoi(a)
	if err != nil {
		return 0, 0, err
	}
	to, err := strconv.Atoi(b)
	if err != nil {
		return 0, 0, err
	}
	return from, to, nil
}
