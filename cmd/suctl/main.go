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
//
// With -backend pir (or "backend": "pir" in the config) the query goes
// to the multi-server PIR fleet instead: one XOR-PIR fetch of the
// block's availability row, private as long as the k replicas queried
// do not collude. No key generation, no STP, no license — the output
// is the per-channel AVAILABLE/OCCUPIED verdict at the deployment's
// availability threshold (see DESIGN.md §13 for the trade):
//
//	suctl -backend pir -block 17 -request "1=100,2=50"
//	      [-pir host:port,host:port] [-k 2] [-table bitmap|bloom]
package main

import (
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"pisa/internal/config"
	"pisa/internal/geo"
	"pisa/internal/node"
	"pisa/internal/pir"
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
	stpAddr := fs.String("stp", "", "comma-separated STP addresses (overrides config)")
	id := fs.String("id", "", "SU identifier (required)")
	block := fs.Int("block", -1, "SU location block (required, stays private)")
	request := fs.String("request", "", "channel=eirpMW pairs, e.g. \"1=100,2=50\" (required)")
	discloseRows := fs.String("disclose-rows", "", "optional from:to grid-row band to disclose")
	backend := fs.String("backend", "", "spectrum-query backend: pisa (encrypted protocol) or pir (multi-server PIR; overrides config)")
	pirAddr := fs.String("pir", "", "comma-separated PIR replica addresses (overrides config pir.addrs)")
	kFlag := fs.Int("k", 0, "PIR privacy parameter: replicas each query fans out to (0 = config pir.k, which defaults to all)")
	table := fs.String("table", "bitmap", "PIR table to query: bitmap (exact) or bloom (compact, small false-positive rate)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sdcTarget, err := config.OneSDCAddr("-sdc", *sdcAddr)
	if err != nil {
		return err
	}
	cfg, err := config.Load(*configPath)
	if err != nil {
		return err
	}
	if *backend != "" {
		cfg.Backend = *backend
	}
	backendName, err := cfg.BackendName()
	if err != nil {
		return err
	}
	if backendName == config.BackendPIR {
		if *block < 0 || *request == "" {
			return errors.New("-block and -request are required")
		}
		if *pirAddr != "" {
			cfg.PIR.Addrs = config.SplitAddrs(*pirAddr)
		}
		if *kFlag > 0 {
			cfg.PIR.K = *kFlag
		}
		wp, err := cfg.WatchParams()
		if err != nil {
			return err
		}
		eirp, err := parseRequest(*request, wp)
		if err != nil {
			return err
		}
		return runPIR(cfg, *table, geo.BlockID(*block), eirp, wp, os.Stdout)
	}
	if *id == "" || *block < 0 || *request == "" {
		return errors.New("-id, -block and -request are required")
	}
	stpTargets := cfg.STPTargets()
	if *stpAddr != "" {
		stpTargets = config.SplitAddrs(*stpAddr)
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

	stp, err := node.DialSTPWith(rpcOpts, stpTargets...)
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

// runPIR answers the availability question through the multi-server
// PIR backend: fetch the block's row obliviously, then decide each
// requested channel locally. The replicas learn which SU asked (the
// TCP peer) but not which block or channels it cares about.
func runPIR(cfg config.File, tableName string, block geo.BlockID, eirp map[int]int64, wp watch.Params, out io.Writer) error {
	tbl, err := parseTable(tableName)
	if err != nil {
		return err
	}
	rpcOpts, err := cfg.RPC.Options()
	if err != nil {
		return err
	}
	targets := cfg.PIR.Targets()
	fmt.Fprintf(out, "dialing %d PIR replicas (k=%d shares per query)...\n", len(targets), cfg.PIR.K)
	c, err := node.DialPIRWith(rpcOpts, cfg.PIR.K, targets...)
	if err != nil {
		return err
	}
	defer c.Close()
	m := c.Meta()
	if int(block) >= m.Blocks {
		return fmt.Errorf("block %d out of range: fleet serves %d blocks", block, m.Blocks)
	}
	for ch := range eirp {
		if ch < 0 || ch >= m.Channels {
			return fmt.Errorf("channel %d out of range: fleet serves %d channels", ch, m.Channels)
		}
	}

	start := time.Now()
	row, version, err := c.Fetch(context.Background(), tbl, block)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	up := c.K() * m.SelBytes()
	down := c.K() * m.RowLen(tbl)
	fmt.Fprintf(out, "fetched %s row for 1 of %d blocks in %v (db version %d; %d B up + %d B down over %d replicas)\n",
		tbl, m.Blocks, elapsed.Round(time.Millisecond), version, up, down, c.K())
	if tbl == pir.TableBloom {
		fmt.Fprintf(out, "bloom table: %.2e false-positive rate (%d bits, %d hashes)\n",
			pir.FalsePositiveRate(m.BloomBits, m.BloomHashes, m.Channels), m.BloomBits, m.BloomHashes)
	}

	channels := make([]int, 0, len(eirp))
	for ch := range eirp {
		channels = append(channels, ch)
	}
	sort.Ints(channels)
	available := 0
	for _, ch := range channels {
		if channelAvailable(m, tbl, row, ch) {
			available++
			fmt.Fprintf(out, "channel %d: AVAILABLE (max EIRP >= %d units at block %d)\n",
				ch, m.MinEIRPUnits, block)
		} else {
			fmt.Fprintf(out, "channel %d: OCCUPIED (some primary user's budget caps it below %d units)\n",
				ch, m.MinEIRPUnits)
		}
		if units := eirp[ch]; units > m.MinEIRPUnits {
			fmt.Fprintf(out, "  note: requested %d units exceeds the availability threshold %d; "+
				"the PIR backend cannot certify above it\n", units, m.MinEIRPUnits)
		}
	}
	fmt.Fprintf(out, "%d of %d requested channels available\n", available, len(channels))
	return nil
}

// parseTable decodes the -table flag.
func parseTable(s string) (pir.Table, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "bitmap":
		return pir.TableBitmap, nil
	case "bloom":
		return pir.TableBloom, nil
	}
	return 0, fmt.Errorf("unknown -table %q (want bitmap or bloom)", s)
}

// channelAvailable tests one channel against a fetched row.
func channelAvailable(m pir.Meta, t pir.Table, row []byte, ch int) bool {
	if t == pir.TableBloom {
		return pir.BloomHas(row, m.BloomBits, m.BloomHashes, ch)
	}
	return pir.BitmapHas(row, ch)
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
