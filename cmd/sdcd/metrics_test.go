package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"regexp"
	"strconv"
	"testing"
	"time"

	"pisa/internal/config"
	"pisa/internal/geo"
	"pisa/internal/node"
	"pisa/internal/obs"
	"pisa/internal/pisa"
	"pisa/internal/watch"
)

// TestRunServesMetrics boots sdcd with -metrics, pushes one PU update
// and one SU request through it, and asserts the scrape is valid
// Prometheus exposition with every pipeline stage histogram populated.
func TestRunServesMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("spins real servers")
	}
	cfg := config.Default()
	cfg.Channels = 2
	cfg.GridCols = 3
	cfg.GridRows = 2
	params, err := cfg.PisaParams()
	if err != nil {
		t.Fatal(err)
	}
	stp, err := pisa.NewSTP(nil, params.PaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	stpSrv := node.NewSTPServer(stp, nil, time.Minute)
	stpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = stpSrv.Serve(stpLn) }()
	t.Cleanup(func() { stpSrv.Close() })

	freePort := func() string {
		probe, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := probe.Addr().String()
		probe.Close()
		return addr
	}
	sdcAddr, metricsAddr := freePort(), freePort()

	cfgPath := t.TempDir() + "/pisa.json"
	cfg.STPAddr = stpLn.Addr().String()
	if err := cfg.Save(cfgPath); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-config", cfgPath, "-listen", sdcAddr,
			"-store", t.TempDir(), "-metrics", metricsAddr})
	}()
	cli := waitReady(t, sdcAddr, done)
	defer cli.Close()

	// One PU update and one full SU request exercise every pipeline
	// stage plus the WAL append path.
	col, err := cli.EColumn(1)
	if err != nil {
		t.Fatal(err)
	}
	pu, err := pisa.NewPU(nil, "tv-1", 1, col, stp.GroupKey(), params)
	if err != nil {
		t.Fatal(err)
	}
	u, err := pu.Tune(1, params.Watch.Quantize(params.Watch.SMinPUmW))
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.SendUpdate(u); err != nil {
		t.Fatal(err)
	}
	planner, err := watch.NewSystem(params.Watch, nil)
	if err != nil {
		t.Fatal(err)
	}
	su, err := pisa.NewSU(nil, "su-1", 4, params, planner.Planner(), stp.GroupKey())
	if err != nil {
		t.Fatal(err)
	}
	if err := stp.RegisterSU("su-1", su.PublicKey()); err != nil {
		t.Fatal(err)
	}
	req, err := su.PrepareRequest(map[int]int64{1: 1}, geo.Disclosure{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.SendRequest(req); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", metricsAddr))
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateExposition(body); err != nil {
		t.Fatalf("scrape is not valid exposition: %v\n%s", err, body)
	}

	// Every pipeline stage histogram must have recorded the request.
	count := func(metric, labels string) uint64 {
		t.Helper()
		re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(metric+`_count`+labels) + ` (\d+)$`)
		m := re.FindSubmatch(body)
		if m == nil {
			t.Fatalf("scrape missing %s_count%s:\n%s", metric, labels, body)
		}
		n, err := strconv.ParseUint(string(m[1]), 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	// A monolithic daemon is the one-shard router: the license is the
	// router's stage, and the SDC has no license stage of its own.
	for metric, stages := range map[string][]string{
		"pisa_sdc_request_stage_seconds": {"snapshot", "aggregate", "blind", "stp_convert", "unblind", "total"},
		"pisa_router_stage_seconds":      {"fanout", "merge", "license", "total"},
	} {
		for _, stage := range stages {
			if n := count(metric, `{stage="`+stage+`"}`); n == 0 {
				t.Errorf("%s stage %q histogram empty", metric, stage)
			}
		}
	}
	sdcStages := map[string]bool{"snapshot": true, "aggregate": true, "blind": true, "stp_convert": true, "unblind": true, "total": true}
	for _, m := range regexp.MustCompile(`(?m)^pisa_sdc_request_stage_seconds_count\{stage="(\w+)"\}`).FindAllSubmatch(body, -1) {
		if !sdcStages[string(m[1])] {
			t.Errorf("scrape carries SDC stage %q, which no SDC maintains", m[1])
		}
	}
	if n := count("pisa_sdc_pu_update_seconds", ""); n == 0 {
		t.Error("PU update histogram empty")
	}
	if n := count("pisa_store_wal_append_seconds", ""); n == 0 {
		t.Error("WAL append histogram empty (durable daemon journalled nothing)")
	}
	// The group key's first nonce, at the latest the budget encryption
	// at boot, built its full table; the SU key the license was encrypted
	// under built a lean one.
	for _, comb := range []string{"full", "lean"} {
		if m := regexp.MustCompile(`(?m)^pisa_paillier_nonce_tables_total\{comb="` + comb + `"\} ([1-9]\d*)$`).Find(body); m == nil {
			t.Errorf("scrape shows no %s nonce table built", comb)
		}
	}
	// The key the license was encrypted under is still held by the
	// SU-key cache.
	if m := regexp.MustCompile(`(?m)^pisa_sdc_sukey_cache_entries ([1-9]\d*)$`).Find(body); m == nil {
		t.Error("scrape shows no SU key held by the SU-key cache")
	}
	// The blinding, cache and Paillier families carry what the process
	// still has and nothing else: no blinding-pool series, no age-expiry
	// event, no engine switch.
	for _, family := range []struct {
		re   string
		want map[string]bool
	}{
		{`(?m)^pisa_sdc_blind_(\w+)`, map[string]bool{"total": true}},
		{`(?m)^pisa_sdc_cache_events_total\{event="(\w+)"\}`,
			map[string]bool{"hit": true, "miss": true, "stale": true, "evict": true, "admit": true}},
		{`(?m)^pisa_paillier_(\w+)`, map[string]bool{
			"nonce_total": true, "nonce_tables_total": true, "fullwidth_nonce_total": true, "decrypt_total": true,
			"nonce_pool_depth": true, "nonce_pool_refills_total": true, "nonce_fallbacks_total": true}},
	} {
		for _, m := range regexp.MustCompile(family.re).FindAllSubmatch(body, -1) {
			if !family.want[string(m[1])] {
				t.Errorf("scrape carries %s, which no SDC maintains", m[0])
			}
		}
	}

	// The pprof index must be mounted on the same listener.
	pp, err := http.Get(fmt.Sprintf("http://%s/debug/pprof/cmdline", metricsAddr))
	if err != nil {
		t.Fatal(err)
	}
	pp.Body.Close()
	if pp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline status %d", pp.StatusCode)
	}
}
