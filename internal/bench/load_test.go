package bench

import (
	"testing"
	"time"

	"pisa/internal/deploy"
	"pisa/internal/pisa"
)

// loadConfig is a deployment small enough for CI: 3 channels over a
// 4x3 grid at the minimum signer-safe key size, a concentrated fleet
// so shapes repeat within the run.
func loadConfig(mode string) LoadConfig {
	return LoadConfig{
		Mode:     mode,
		Duration: 1500 * time.Millisecond,
		Rate:     30,
		Workers:  2,
		Seed:     7,

		Fleet:              4,
		FleetZipfS:         1.5,
		Mobility:           0,
		ChannelZipfS:       1.5,
		EIRPLevels:         2,
		ChannelsPerRequest: 1,

		Channels: 3, Cols: 4, Rows: 3,
		PaillierBits: 576,
		CacheEntries: 64,
	}
}

// TestRunLoadClosedSharded drives a channel partition through the
// injected Target: four windows, one deploy.New each as four
// `sdcd -shard-index` daemons run them, behind pisa.NewRouter.
func TestRunLoadClosedSharded(t *testing.T) {
	cfg := loadConfig("closed")
	// Four windows need four channels.
	cfg.Channels = 4
	params, err := SmallParams(cfg.Channels, cfg.Cols, cfg.Rows, cfg.PaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	params.CacheEntries = cfg.CacheEntries
	stp, err := pisa.NewSTP(nil, params.PaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]pisa.ShardService, 4)
	for i := range shards {
		d, err := deploy.New(deploy.Config{Issuer: "load-shard", Params: params, STP: stp, Windows: len(shards), Index: i})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close(false)
		shards[i] = d.SDC
	}
	router, err := pisa.NewRouter("load-router", params, nil, stp, shards)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Target = Target{Front: router, STP: stp, Planner: router.Planner(), VerifyKey: router.VerifyKey()}
	cfg.TargetParams = params
	rep, err := RunLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 {
		t.Fatal("closed loop completed no requests")
	}
	if rep.Errors != 0 {
		t.Fatalf("%d of %d requests failed: %s", rep.Errors, rep.Requests, rep.FirstError)
	}
	if rep.Registered == 0 || rep.Registered > int64(cfg.Fleet) {
		t.Errorf("registered %d SUs, want 1..%d", rep.Registered, cfg.Fleet)
	}
	if rep.Refreshed == 0 {
		t.Error("no request took the refresh path: fleet shapes never repeated")
	}
	if rep.CacheHits == 0 {
		t.Error("no decision-cache hits: the fleet fix is not reaching the SDC cache")
	}
	if rep.AchievedRate <= 0 {
		t.Errorf("achieved rate %g, want > 0", rep.AchievedRate)
	}
	stages := map[string]StageSLO{}
	for _, s := range rep.Stages {
		stages[s.Stage] = s
	}
	for _, want := range []string{"e2e", "sdc_total", "router_total", "router_fanout"} {
		s, ok := stages[want]
		if !ok {
			t.Errorf("stage %q missing from the SLO report", want)
			continue
		}
		if s.Count == 0 || s.P50Ms <= 0 || s.P99Ms < s.P50Ms || s.P999Ms < s.P99Ms {
			t.Errorf("stage %q SLOs malformed: %+v", want, s)
		}
	}
}

func TestRunLoadOpenMonolithic(t *testing.T) {
	cfg := loadConfig("open")
	cfg.Rate = 10
	cfg.Duration = time.Second
	// A little PU churn rides along; errors still must be zero.
	cfg.PUs = 1
	cfg.PUSwitchesPerHour = 7200 // ~2 switches over the 1 s horizon
	cfg.DiurnalAmplitude = 0.8
	rep, err := RunLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 {
		t.Fatal("open loop completed no requests")
	}
	if rep.Errors != 0 {
		t.Fatalf("%d of %d requests failed", rep.Errors, rep.Requests)
	}
	if rep.PUErrors != 0 {
		t.Fatalf("%d PU updates failed", rep.PUErrors)
	}
	if rep.PeakBacklog < 1 {
		t.Errorf("peak backlog %d, want >= 1", rep.PeakBacklog)
	}
	if rep.OfferedRate != 10 {
		t.Errorf("offered rate %g, want 10", rep.OfferedRate)
	}
}

// TestRunLoadPIRBackend drives the PIR fleet through both loops of the
// driver the PISA backend shares.
func TestRunLoadPIRBackend(t *testing.T) {
	for _, mode := range []string{"closed", "open"} {
		t.Run(mode, func(t *testing.T) {
			cfg := loadConfig(mode)
			cfg.Backend = "pir"
			cfg.Duration = 500 * time.Millisecond
			cfg.Replicas, cfg.K = 3, 2
			rep, err := RunLoad(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Requests == 0 {
				t.Fatal("PIR loop completed no requests")
			}
			if rep.Errors != 0 {
				t.Fatalf("%d of %d fetches failed", rep.Errors, rep.Requests)
			}
			if rep.CacheHits != 0 {
				t.Errorf("PIR backend reported %d cache hits, want 0 (no decision cache)", rep.CacheHits)
			}
			if mode == "open" && rep.PeakBacklog < 1 {
				t.Errorf("open loop peak backlog %d, want >= 1", rep.PeakBacklog)
			}
			found := false
			for _, s := range rep.Stages {
				if s.Stage == "e2e" && s.Count > 0 {
					found = true
				}
			}
			if !found {
				t.Error("e2e stage missing from the PIR SLO report")
			}
		})
	}
}

// TestRunLoadReplaysPUSchedule: both backends replay the run's whole PU
// schedule, the PISA one as encrypted updates to the SDC and the PIR one
// into every replica's database, with one seed giving both the same.
func TestRunLoadReplaysPUSchedule(t *testing.T) {
	cfg := loadConfig("closed")
	cfg.Duration = time.Second
	cfg.Replicas, cfg.K = 3, 2
	cfg.PUs = 2
	cfg.PUSwitchesPerHour = 36000 // ~10 switches over the 1 s horizon
	params, err := SmallParams(cfg.Channels, cfg.Cols, cfg.Rows, cfg.PaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	schedule, err := cfg.puSchedule(params.Watch)
	if err != nil {
		t.Fatal(err)
	}
	if len(schedule) == 0 {
		t.Fatal("the schedule holds no switch")
	}
	for _, backend := range []string{"pisa", "pir"} {
		cfg.Backend = backend
		rep, err := RunLoad(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rep.PUUpdates != int64(len(schedule)) || rep.PUErrors != 0 {
			t.Errorf("%s: %d PU updates applied and %d failed, want the schedule's %d",
				backend, rep.PUUpdates, rep.PUErrors, len(schedule))
		}
		if rep.Errors != 0 {
			t.Errorf("%s: %d of %d requests failed under churn: %s", backend, rep.Errors, rep.Requests, rep.FirstError)
		}
	}
}

func TestLoadConfigValidate(t *testing.T) {
	cases := []func(*LoadConfig){
		func(c *LoadConfig) { c.Mode = "burst" },
		func(c *LoadConfig) { c.Duration = 0 },
		func(c *LoadConfig) { c.Rate = 0 },
		func(c *LoadConfig) { c.Workers = 0 },
		func(c *LoadConfig) { c.Think = -time.Second },
		func(c *LoadConfig) { c.Fleet = 0 },
		func(c *LoadConfig) { c.MaxRetries = -1 },
		func(c *LoadConfig) { c.Backend = "carrier-pigeon" },
	}
	for i, mut := range cases {
		cfg := loadConfig("closed")
		mut(&cfg)
		if _, err := RunLoad(cfg); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}
