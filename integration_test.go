package repro

// System-level integration test: the full networked deployment built
// from a config file, driven by a generated workload, checked against
// the plaintext oracle. This is the closest thing to "running the
// paper's Figure 3 on one machine".

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"pisa/internal/config"
	"pisa/internal/deploy"
	"pisa/internal/geo"
	"pisa/internal/matrix"
	"pisa/internal/node"
	"pisa/internal/obs"
	"pisa/internal/paillier"
	"pisa/internal/pisa"
	"pisa/internal/propagation"
	"pisa/internal/store"
	"pisa/internal/trace"
	"pisa/internal/watch"
)

func TestSystemIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("full networked system")
	}
	cfg := config.Default()
	testKeys(&cfg)
	cfg.Channels = 3
	cfg.GridCols = 6
	cfg.GridRows = 4
	params, err := cfg.PisaParams()
	if err != nil {
		t.Fatal(err)
	}

	// Boot the STP and SDC servers on loopback.
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

	stpCli, err := node.DialSTP(stpLn.Addr().String(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { stpCli.Close() })

	sdc, err := pisa.NewSDC("integration-sdc", params, nil, stpCli)
	if err != nil {
		t.Fatal(err)
	}
	sdcSrv := node.NewSDCServer(sdc, nil, time.Minute)
	sdcLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = sdcSrv.Serve(sdcLn) }()
	t.Cleanup(func() { sdcSrv.Close() })

	// The plaintext oracle the networked system must agree with.
	oracle, err := watch.NewSystem(params.Watch, nil)
	if err != nil {
		t.Fatal(err)
	}
	planner, err := watch.NewPlanner(params.Watch)
	if err != nil {
		t.Fatal(err)
	}

	// Clients (each role uses its own connections, like real hosts).
	sdcCli := node.DialSDC(sdcLn.Addr().String(), time.Minute)
	t.Cleanup(func() { sdcCli.Close() })
	verifyKey, err := sdcCli.VerifyKey()
	if err != nil {
		t.Fatal(err)
	}

	// Workload: 3 PUs surfing for an hour, 6 SU requests.
	schedule, err := trace.PUSchedule(trace.PUConfig{
		Seed: 17, PUs: 3, Blocks: params.Watch.Grid.Blocks(),
		Channels: params.Watch.Channels, SwitchesPerHour: 6,
		OffProbability: 0.2, Horizon: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	requests, err := trace.SUWorkload(trace.SUConfig{
		Seed: 23, Blocks: params.Watch.Grid.Blocks(),
		Channels:        params.Watch.Channels,
		MaxEIRPUnits:    params.Watch.Quantize(params.Watch.SUMaxEIRPmW),
		RequestsPerHour: 15, ChannelsPerRequest: 1.5, Horizon: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}

	pus := make(map[watch.PUID]*pisa.PU)
	sus := make(map[string]*pisa.SU)
	si := 0
	decisions := 0
	for _, req := range requests {
		for ; si < len(schedule) && schedule[si].At <= req.At; si++ {
			ev := schedule[si]
			pu := pus[ev.PU]
			if pu == nil {
				eCol, err := sdcCli.EColumn(ev.Block)
				if err != nil {
					t.Fatal(err)
				}
				if pu, err = pisa.NewPU(nil, ev.PU, ev.Block, eCol, stpCli.GroupKey(), params); err != nil {
					t.Fatal(err)
				}
				pus[ev.PU] = pu
			}
			var update *pisa.PUUpdate
			reg := watch.Registration{Block: ev.Block, Channel: ev.Channel}
			if ev.Channel < 0 {
				reg.Channel = -1
				update, err = pu.Off()
			} else {
				reg.SignalUnits = params.Watch.Quantize(params.Watch.SMinPUmW * 10)
				update, err = pu.Tune(ev.Channel, reg.SignalUnits)
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := oracle.UpdatePU(ev.PU, reg); err != nil {
				continue // conflicting cell: skip in both worlds
			}
			if err := sdcCli.SendUpdate(update); err != nil {
				t.Fatal(err)
			}
		}
		su := sus[req.SU]
		if su == nil {
			if su, err = pisa.NewSU(nil, req.SU, req.Block, params, planner, stpCli.GroupKey()); err != nil {
				t.Fatal(err)
			}
			if err := stpCli.RegisterSU(su.ID(), su.PublicKey()); err != nil {
				t.Fatal(err)
			}
			sus[req.SU] = su
		}
		encReq, err := su.PrepareRequest(req.EIRPUnits, geo.Disclosure{})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := sdcCli.SendRequest(encReq)
		if err != nil {
			t.Fatal(err)
		}
		grant, err := su.OpenResponse(resp, encReq, verifyKey)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracle.Evaluate(watch.Request{Block: req.Block, EIRPUnits: req.EIRPUnits})
		if err != nil {
			t.Fatal(err)
		}
		if grant.Granted != want.Granted {
			t.Fatalf("request %s at t=%v: network=%v oracle=%v",
				req.SU, req.At, grant.Granted, want.Granted)
		}
		decisions++
	}
	if decisions == 0 {
		t.Fatal("workload produced no decisions; fixture broken")
	}
	t.Logf("%d networked decisions, all matching the plaintext oracle", decisions)
}

// TestSTPRestartUnderLoad is the STP resilience acceptance test: a
// durable STP (its group key plus an SU registry journalled to a store)
// is closed while an SU request fleet is in flight, and a NEW STP
// instance — the same key, the registry recovered from that store — is
// served on the same address. Every request must still open, including
// those of SUs that registered only with the old instance: the SDC's
// sign conversions are idempotent, so its client retries them onto the
// restarted STP, which finds each SU's key in the recovered registry.
func TestSTPRestartUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("full networked system")
	}
	cfg := config.Default()
	testKeys(&cfg)
	cfg.Channels = 3
	cfg.GridCols = 5
	cfg.GridRows = 4
	params, err := cfg.PisaParams()
	if err != nil {
		t.Fatal(err)
	}
	group, err := paillier.GenerateKey(nil, params.PaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	// serveSTP boots a fresh STP instance on addr the way cmd/stpd does:
	// the registry is restored from dir, then every registration is
	// journalled (and fsynced) before it is acknowledged.
	serveSTP := func(addr string) (*node.STPServer, *store.Store, string) {
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		stp := pisa.NewSTPWithKey(nil, group)
		if err := stp.RestoreRegistry(st.SnapshotData(), st.Tail()); err != nil {
			t.Fatal(err)
		}
		stp.SetRegistrationJournal(func(id string, pk *paillier.PublicKey) error {
			payload, err := pisa.EncodeSURegistration(id, pk)
			if err != nil {
				return err
			}
			_, err = st.Append(pisa.RecordSURegistration, payload)
			return err
		})
		srv := node.NewSTPServer(stp, nil, time.Minute)
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			t.Fatalf("listen %s: %v", addr, err)
		}
		go func() { _ = srv.Serve(ln) }()
		return srv, st, ln.Addr().String()
	}
	stpSrv, stpStore, stpAddr := serveSTP("127.0.0.1:0")
	t.Cleanup(func() {
		stpSrv.Close()
		stpStore.Close()
	})

	stpCli, err := node.DialSTPWith(node.Options{
		CallTimeout: time.Minute,
		Retry:       node.RetryPolicy{MaxAttempts: 6, BaseDelay: 10 * time.Millisecond},
	}, stpAddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { stpCli.Close() })

	sdc, err := pisa.NewSDC("restart-sdc", params, nil, stpCli)
	if err != nil {
		t.Fatal(err)
	}
	sdcSrv := node.NewSDCServer(sdc, nil, time.Minute)
	sdcLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = sdcSrv.Serve(sdcLn) }()
	t.Cleanup(func() { sdcSrv.Close() })

	planner, err := watch.NewPlanner(params.Watch)
	if err != nil {
		t.Fatal(err)
	}
	sdcCli := node.DialSDC(sdcLn.Addr().String(), time.Minute)
	t.Cleanup(func() { sdcCli.Close() })
	verifyKey, err := sdcCli.VerifyKey()
	if err != nil {
		t.Fatal(err)
	}

	// One PU so the grid has both busy and free channels.
	eCol, err := sdcCli.EColumn(8)
	if err != nil {
		t.Fatal(err)
	}
	pu, err := pisa.NewPU(nil, "tv-restart", 8, eCol, stpCli.GroupKey(), params)
	if err != nil {
		t.Fatal(err)
	}
	update, err := pu.Tune(1, params.Watch.Quantize(params.Watch.SMinPUmW))
	if err != nil {
		t.Fatal(err)
	}
	if err := sdcCli.SendUpdate(update); err != nil {
		t.Fatal(err)
	}

	requests, err := trace.SUWorkload(trace.SUConfig{
		Seed: 31, Blocks: params.Watch.Grid.Blocks(),
		Channels:        params.Watch.Channels,
		MaxEIRPUnits:    params.Watch.Quantize(params.Watch.SUMaxEIRPmW),
		RequestsPerHour: 8, ChannelsPerRequest: 1.5, Horizon: time.Hour,
		Fleet: 3, // revisits: SUs registered before the restart ask after it
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(requests) < 4 {
		t.Fatalf("workload produced only %d requests; fixture too small", len(requests))
	}

	sus := make(map[string]*pisa.SU)
	restartAt := len(requests) / 2
	carriedOver := 0 // requests after the restart from SUs registered before it
	for i, req := range requests {
		if i == restartAt {
			// Mid-fleet: the STP goes down and a new instance comes up
			// on its address from the same store.
			if err := stpSrv.Close(); err != nil {
				t.Fatal(err)
			}
			if err := stpStore.Close(); err != nil {
				t.Fatal(err)
			}
			stpSrv, stpStore, _ = serveSTP(stpAddr)
		}
		su := sus[req.SU]
		if su == nil {
			if su, err = pisa.NewSU(nil, req.SU, req.Block, params, planner, stpCli.GroupKey()); err != nil {
				t.Fatal(err)
			}
			if err := stpCli.RegisterSU(su.ID(), su.PublicKey()); err != nil {
				t.Fatalf("request %d: RegisterSU: %v", i, err)
			}
			sus[req.SU] = su
		} else if i >= restartAt {
			carriedOver++
		}
		encReq, err := su.PrepareRequest(req.EIRPUnits, geo.Disclosure{})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := sdcCli.SendRequest(encReq)
		if err != nil {
			t.Fatalf("request %d (%s the STP restart): %v", i,
				map[bool]string{true: "after", false: "before"}[i >= restartAt], err)
		}
		if _, err := su.OpenResponse(resp, encReq, verifyKey); err != nil {
			t.Fatalf("request %d: open response: %v", i, err)
		}
	}
	if carriedOver == 0 {
		t.Fatal("no SU registered before the restart asked after it; fixture cannot test the recovered registry")
	}
	stats := stpCli.Stats()
	if stats.Retries < 1 {
		t.Errorf("retries = %d, want >= 1 (did the restart land before the fleet finished?)", stats.Retries)
	}
	t.Logf("%d SU requests (%d after the restart from SUs registered before it), zero client-visible errors "+
		"across the STP restart (%d retries, %d transport faults)",
		len(requests), carriedOver, stats.Retries, stats.TransportFaults)
}

// decryptBudgets opens an SDC's budget matrix for the recovery
// comparison below.
func decryptBudgets(sk *paillier.PrivateKey, sdc *pisa.SDC) (*matrix.Int, error) {
	return matrix.DecryptPacked(sk, sdc.PackedBudgetSnapshot())
}

// TestRestartRecovery drives a durable SDC and an identical
// uninterrupted control through the same update stream, crashes the
// durable one (including a torn final WAL record, as after kill -9
// mid-write), recovers it from snapshot + WAL tail, and requires the
// recovered controller to be indistinguishable from the control:
// identical public E columns, identical decrypted budget matrix, and
// identical SU decisions, every ciphertext of which the STP decrypts on
// the short exponent: both lives draw their nonces from the group key's
// published H.
func TestRestartRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("full recovery cycle with real crypto")
	}
	cfg := config.Default()
	testKeys(&cfg)
	cfg.Channels = 3
	cfg.GridCols = 5
	cfg.GridRows = 4
	params, err := cfg.PisaParams()
	if err != nil {
		t.Fatal(err)
	}
	sk, err := paillier.GenerateKey(nil, params.PaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	stp := pisa.NewSTPWithKey(nil, sk)

	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	durable, err := pisa.RestoreSDC("it-sdc", params, nil, stp, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	durable.SetUpdateJournal(func(u *pisa.PUUpdate) error {
		payload, err := pisa.EncodePUUpdate(u)
		if err != nil {
			return err
		}
		_, err = st.Append(pisa.RecordPUUpdate, payload)
		return err
	})
	control, err := pisa.NewSDC("it-sdc", params, nil, stp)
	if err != nil {
		t.Fatal(err)
	}

	// apply sends one update through both worlds.
	newPU := func(id watch.PUID, block geo.BlockID) *pisa.PU {
		eCol, err := durable.EColumn(block)
		if err != nil {
			t.Fatal(err)
		}
		pu, err := pisa.NewPU(nil, id, block, eCol, stp.GroupKey(), params)
		if err != nil {
			t.Fatal(err)
		}
		return pu
	}
	apply := func(u *pisa.PUUpdate) {
		t.Helper()
		if err := durable.HandlePUUpdate(u); err != nil {
			t.Fatal(err)
		}
		if err := control.HandlePUUpdate(u); err != nil {
			t.Fatal(err)
		}
	}
	tune := func(pu *pisa.PU, channel int, signal int64) *pisa.PUUpdate {
		t.Helper()
		u, err := pu.Tune(channel, signal)
		if err != nil {
			t.Fatal(err)
		}
		return u
	}
	sigMin := params.Watch.Quantize(params.Watch.SMinPUmW)

	// Decision helper: the same prepared request against both
	// controllers must open to the same grant either side of the crash.
	su, err := pisa.NewSU(nil, "su-1", 7, params, durable.Planner(), stp.GroupKey())
	if err != nil {
		t.Fatal(err)
	}
	if err := stp.RegisterSU("su-1", su.PublicKey()); err != nil {
		t.Fatal(err)
	}
	decide := func(s *pisa.SDC, eirp map[int]int64) bool {
		t.Helper()
		req, err := su.PrepareRequest(eirp, geo.Disclosure{})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := s.ProcessRequest(req)
		if err != nil {
			t.Fatal(err)
		}
		grant, err := su.OpenResponse(resp, req, s.VerifyKey())
		if err != nil {
			t.Fatal(err)
		}
		return grant.Granted
	}
	maxPower := map[int]int64{1: params.Watch.Quantize(params.Watch.SUMaxEIRPmW)}

	// Phase 1: updates, a decision, then a snapshot.
	pu1 := newPU("tv-1", 8)
	pu2 := newPU("tv-2", 3)
	apply(tune(pu1, 1, sigMin))
	apply(tune(pu2, 0, 16*sigMin))
	if d, c := decide(durable, maxPower), decide(control, maxPower); d != c {
		t.Fatalf("pre-snapshot decisions diverge: durable=%v control=%v", d, c)
	}
	state, err := durable.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveSnapshot(state); err != nil {
		t.Fatal(err)
	}

	// Phase 2: more updates land in the WAL after the snapshot. No
	// receiver sits beyond block 11, so whatever the slot geometry,
	// recovery rebuilds the groups that hold one and takes at least the
	// last group as the snapshot has it.
	pu3 := newPU("tv-3", 10)
	apply(tune(pu3, 2, 4*sigMin))
	apply(tune(pu1, 0, 2*sigMin)) // retune: replay must supersede the snapshot's column

	// Phase 3: crash. The process dies mid-append: a frame prefix of a
	// never-acknowledged update reaches the segment, so neither world
	// applied it.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segment to tear (err %v)", err)
	}
	sort.Strings(segs)
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := []byte{0x40, 0x00, 0x00, 0x00, 0xde, 0xad} // header prefix + 2 stray bytes
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 4: recover.
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	rec := st2.Recovery()
	if rec.Source != "snapshot+wal" {
		t.Fatalf("recovery source %q, want snapshot+wal", rec.Source)
	}
	if rec.TailRecords != 2 {
		t.Fatalf("recovered %d tail records, want 2", rec.TailRecords)
	}
	if rec.TornBytes != int64(len(torn)) {
		t.Fatalf("torn bytes %d, want %d", rec.TornBytes, len(torn))
	}
	restored, err := pisa.RestoreSDC("it-sdc", params, nil, stp, st2.SnapshotData(), st2.Tail())
	if err != nil {
		t.Fatal(err)
	}

	// The recovered controller is indistinguishable from the control.
	for b := 0; b < params.Watch.Grid.Blocks(); b++ {
		want, err := control.EColumn(geo.BlockID(b))
		if err != nil {
			t.Fatal(err)
		}
		got, err := restored.EColumn(geo.BlockID(b))
		if err != nil {
			t.Fatal(err)
		}
		for c := range want {
			if got[c] != want[c] {
				t.Fatalf("EColumn(%d)[%d] = %d, want %d", b, c, got[c], want[c])
			}
		}
	}
	wantBudgets, err := decryptBudgets(sk, control)
	if err != nil {
		t.Fatal(err)
	}
	gotBudgets, err := decryptBudgets(sk, restored)
	if err != nil {
		t.Fatal(err)
	}
	if !gotBudgets.Equal(wantBudgets) {
		t.Fatal("recovered budget matrix decrypts differently from the uninterrupted control")
	}
	_, full := paillier.Decrypts()
	for name, eirp := range map[string]map[int]int64{
		"max power ch1": maxPower,
		"max power ch0": {0: params.Watch.Quantize(params.Watch.SUMaxEIRPmW)},
		"modest ch2":    {2: params.Watch.Quantize(params.Watch.SUMaxEIRPmW) / 1000},
	} {
		if d, c := decide(restored, eirp), decide(control, eirp); d != c {
			t.Fatalf("post-recovery decision %q diverges: restored=%v control=%v", name, d, c)
		}
	}
	if _, after := paillier.Decrypts(); after != full {
		t.Fatalf("%d post-recovery decryptions continued to the full exponent, want 0", after-full)
	}
}

// TestShardRestartUnderLoad is the channel-sharding fault test
// (DESIGN.md §15): three windowed shards behind a fan-out router that
// holds one client per shard address. Shard 0 is durable — built by
// deploy.New over a store of its own — and the PU sits on channel 0,
// shard 0's window, so the budget that makes the oracle deny next to it
// lives in shard 0's WAL. Mid-storm shard 0 crashes: its server closes,
// then its deployment closes without a final snapshot. A request sent
// while it is down must fail or decide as the oracle does; it must
// never carry a license the oracle denies. Shard 0 then restarts from
// its directory on the same address, and every later request must
// succeed and match the plaintext watch oracle: a restart that lost the
// journalled update grants beside the PU and fails here.
func TestShardRestartUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("full networked system")
	}
	grid, err := geo.NewGrid(5, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	wp := watch.Params{
		Channels:    3,
		Grid:        grid,
		UnitsPerMW:  1e9,
		SUMaxEIRPmW: 4000,
		SMinPUmW:    1e-5,
		DeltaInt:    32,
		Secondary:   propagation.LogDistance{RefLossDB: 40, Exponent: 3.5},
		WorstCase:   propagation.LogDistance{RefLossDB: 60, Exponent: 4},
	}
	params := pisa.TestParams(wp)
	stp, err := pisa.NewSTP(nil, params.PaillierBits)
	if err != nil {
		t.Fatal(err)
	}

	// serve boots window i of three — shard 0 from its store — and
	// serves it on addr; an empty addr picks a port.
	shard0Dir := t.TempDir()
	serve := func(i int, addr string) (*deploy.Deployment, *node.SDCServer, string) {
		t.Helper()
		cfg := deploy.Config{Issuer: "rs-shard", Params: params, STP: stp, Windows: 3, Index: i}
		if i == 0 {
			cfg.Store = config.StoreSpec{Dir: shard0Dir}
		}
		d, err := deploy.New(cfg)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		t.Cleanup(func() { d.Close(false) })
		srv := node.NewSDCServer(d.SDC, nil, time.Minute)
		if addr == "" {
			addr = "127.0.0.1:0"
		}
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			t.Fatalf("shard %d: listen on %s: %v", i, addr, err)
		}
		go func() { _ = srv.Serve(ln) }()
		t.Cleanup(func() { srv.Close() })
		return d, srv, ln.Addr().String()
	}
	var (
		shard0     *deploy.Deployment
		shard0Srv  *node.SDCServer
		shard0Addr string
	)
	services := make([]pisa.ShardService, 3)
	for i := range services {
		d, srv, addr := serve(i, "")
		if i == 0 {
			shard0, shard0Srv, shard0Addr = d, srv, addr
		}
		cli := node.DialSDCWith(node.Options{
			CallTimeout: time.Minute,
			Retry:       node.RetryPolicy{MaxAttempts: 4, BaseDelay: 10 * time.Millisecond},
		}, addr)
		t.Cleanup(func() { cli.Close() })
		services[i] = cli
	}
	router, err := pisa.NewRouter("rs-router", params, nil, stp, services)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := watch.NewSystem(wp, nil)
	if err != nil {
		t.Fatal(err)
	}

	// One PU on channel 0; the update broadcast crosses the wire to
	// every shard and lands in shard 0's WAL.
	eCol, err := router.EColumn(8)
	if err != nil {
		t.Fatal(err)
	}
	pu, err := pisa.NewPU(nil, "tv-shard-rs", 8, eCol, stp.GroupKey(), params)
	if err != nil {
		t.Fatal(err)
	}
	signal := wp.Quantize(wp.SMinPUmW)
	update, err := pu.Tune(0, signal)
	if err != nil {
		t.Fatal(err)
	}
	if err := router.HandlePUUpdate(update); err != nil {
		t.Fatal(err)
	}
	if err := oracle.UpdatePU(pu.ID(), watch.Registration{Block: 8, Channel: 0, SignalUnits: signal}); err != nil {
		t.Fatal(err)
	}

	requests, err := trace.SUWorkload(trace.SUConfig{
		Seed: 47, Blocks: wp.Grid.Blocks(),
		Channels:        wp.Channels,
		MaxEIRPUnits:    wp.Quantize(wp.SUMaxEIRPmW),
		RequestsPerHour: 24, ChannelsPerRequest: 1.5, Horizon: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(requests) < 4 {
		t.Fatalf("workload produced only %d requests; fixture too small", len(requests))
	}
	// The probe asks for channel 0 at full power beside the PU: shard
	// 0's budget alone makes the oracle deny it.
	probe := trace.SURequest{SU: "su-probe", Block: 7, EIRPUnits: map[int]int64{0: wp.Quantize(wp.SUMaxEIRPmW)}}

	// decide sends r through the router and returns the license's
	// verdict, the oracle's, and the router's error.
	sus := make(map[string]*pisa.SU)
	decide := func(r trace.SURequest) (granted, want bool, err error) {
		t.Helper()
		su := sus[r.SU]
		if su == nil {
			if su, err = pisa.NewSU(nil, r.SU, r.Block, params, router.Planner(), stp.GroupKey()); err != nil {
				t.Fatal(err)
			}
			if err := stp.RegisterSU(su.ID(), su.PublicKey()); err != nil {
				t.Fatal(err)
			}
			sus[r.SU] = su
		}
		dec, err := oracle.Evaluate(watch.Request{Block: r.Block, EIRPUnits: r.EIRPUnits})
		if err != nil {
			t.Fatal(err)
		}
		encReq, err := su.PrepareRequest(r.EIRPUnits, geo.Disclosure{})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := router.ProcessRequest(encReq)
		if err != nil {
			return false, dec.Granted, err
		}
		grant, err := su.OpenResponse(resp, encReq, router.VerifyKey())
		if err != nil {
			t.Fatalf("%s: open response: %v", r.SU, err)
		}
		return grant.Granted, dec.Granted, nil
	}
	check := func(what string, r trace.SURequest) {
		t.Helper()
		granted, want, err := decide(r)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if granted != want {
			t.Fatalf("%s: sharded decision %v, oracle %v", what, granted, want)
		}
	}

	half := len(requests) / 2
	for i, req := range requests[:half] {
		check(fmt.Sprintf("request %d, before the crash", i), req)
	}
	// Mid-storm, shard 0 crashes with no final snapshot, so its restart
	// recovers from the WAL alone.
	if err := shard0Srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := shard0.Close(false); err != nil {
		t.Fatal(err)
	}
	granted, want, err := decide(probe)
	if want {
		t.Fatal("the oracle grants the probe; the fixture needs a denial on channel 0")
	}
	if err == nil && granted {
		t.Fatal("with shard 0 down the router licensed a request the oracle denies")
	}
	t.Logf("probe with shard 0 down: granted=%v err=%v", granted, err)

	shard0, _, _ = serve(0, shard0Addr)
	if st := shard0.Store; st != nil {
		rec := st.Recovery()
		t.Logf("shard 0 back on %s from %s (%d tail records)", shard0Addr, rec.Source, rec.TailRecords)
	}
	for i, req := range requests[half:] {
		check(fmt.Sprintf("request %d, after the restart", half+i), req)
	}
	check("probe after the restart", probe)
	t.Logf("%d SU requests and 2 probes, zero wrong grants across shard 0's crash and restart", len(requests))
}

// countingSTP counts the SU-key fetches one role makes through its STP
// client: each is one KindSUKeyRequest round trip on the wire.
type countingSTP struct {
	pisa.STPService
	suKeyCalls atomic.Int64
}

func (c *countingSTP) SUKey(id string) (*paillier.PublicKey, error) {
	c.suKeyCalls.Add(1)
	return c.STPService.SUKey(id)
}

// TestNetworkedSUKeyFetchedOnce is the regression test for the cost
// that existed only in the socketed deployment: an SU key fetched
// through node.STPClient arrives with nothing but its modulus, and the
// SDC and the shard router used to fetch one per request and pay a
// full-width exponentiation to encrypt the license under it (and fill
// its derived fields from several workers at once). Both topologies the
// daemons run — one SDC, and a router over windowed shards, every role
// with its own STP client — must ask the STP for an SU's key at most
// once per client.
//
// Every key here crossed a socket, with its owner's nonce base H beside
// the modulus, and each copy tables H on its first nonce. So once set-up is
// over, with a PU update sent over the wire and folded into the budgets,
// no decryption — the STP's of every blinded V~, the SU's of its
// license — may need more than the short exponent.
//
// The nonce draws of a request are pinned too (DESIGN.md §10's ledger).
// Four channels over eight rows of one slot group each make a full-grid
// request m = 32 ciphertexts and a three-row band 12. The first serving
// of a shape draws 2m + 2: the SU's preparation and the SDC's
// E(-eps*beta) one nonce per ciphertext, the STP one per packed answer —
// one per SDC instance asking — and the license one. A repeat draws
// m + 2: SU.RefreshRequest re-sends the prepared ciphertexts. An STP that went back to one encryption per
// element would read 97 for a first full-grid serving. The counts hold
// whichever way a request is blinded: a shape's first repeat misses again
// and caches it (the SDC admits a shape on its second miss), the later
// repeats hit that entry and are blinded from its power tables, which
// draw nothing.
func TestNetworkedSUKeyFetchedOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("full networked system")
	}
	grid, err := geo.NewGrid(4, 8, 10)
	if err != nil {
		t.Fatal(err)
	}
	wp := watch.Params{
		Channels:    4,
		Grid:        grid,
		UnitsPerMW:  1e9,
		SUMaxEIRPmW: 4000,
		SMinPUmW:    1e-5,
		DeltaInt:    32,
		Secondary:   propagation.LogDistance{RefLossDB: 40, Exponent: 3.5},
		WorstCase:   propagation.LogDistance{RefLossDB: 60, Exponent: 4},
	}
	params := pisa.TestParams(wp)

	serve := func(srv interface {
		Serve(net.Listener) error
		Close() error
	}) string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = srv.Serve(ln) }()
		t.Cleanup(func() { srv.Close() })
		return ln.Addr().String()
	}

	stp, err := pisa.NewSTP(nil, params.PaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	stpAddr := serve(node.NewSTPServer(stp, nil, time.Minute))
	var counters []*countingSTP
	dialSTP := func() *countingSTP {
		c, err := node.DialSTP(stpAddr, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		counted := &countingSTP{STPService: c}
		counters = append(counters, counted)
		return counted
	}

	// Topology 1: one SDC behind a server.
	mono, err := pisa.NewSDC("mono", params, nil, dialSTP())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mono.Close)
	monoCli := node.DialSDC(serve(node.NewSDCServer(mono, nil, time.Minute)), time.Minute)
	t.Cleanup(func() { monoCli.Close() })

	// Topology 2: a router over two windowed shards, each behind its own
	// server, the router behind a third.
	windows, err := pisa.Windows(wp.Channels, 2)
	if err != nil {
		t.Fatal(err)
	}
	services := make([]pisa.ShardService, len(windows))
	for i, w := range windows {
		s, err := pisa.NewSDC("shard", params, nil, dialSTP(), pisa.WithChannelWindow(w[0], w[1]))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		cli := node.DialSDC(serve(node.NewSDCServer(s, nil, time.Minute)), time.Minute)
		t.Cleanup(func() { cli.Close() })
		services[i] = cli
	}
	router, err := pisa.NewRouter("router", params, nil, dialSTP(), services)
	if err != nil {
		t.Fatal(err)
	}
	routerCli := node.DialSDC(serve(node.NewSDCServer(router, nil, time.Minute)), time.Minute)
	t.Cleanup(func() { routerCli.Close() })

	// One SU, registered over the wire like suctl does.
	suSTP, err := node.DialSTP(stpAddr, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { suSTP.Close() })
	planner, err := watch.NewPlanner(wp)
	if err != nil {
		t.Fatal(err)
	}
	su, err := pisa.NewSU(nil, "su-once", 5, params, planner, suSTP.GroupKey())
	if err != nil {
		t.Fatal(err)
	}
	if err := suSTP.RegisterSU(su.ID(), su.PublicKey()); err != nil {
		t.Fatal(err)
	}
	rows, err := grid.RowBand(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	eirp := map[int]int64{1: wp.Quantize(1)}

	const requests = 7 // per front: a full-grid shape four times, a band three times
	_, fullAfterSetup := paillier.Decrypts()
	for _, front := range []struct {
		name string
		cli  *node.SDCClient
		// nonce draws beyond the request's ciphertext count m: m + extra on
		// a first serving, extra on a repeat
		extra uint64
	}{{"mono", monoCli, 2}, {"sharded", routerCli, 3}} {
		verify, err := front.cli.VerifyKey()
		if err != nil {
			t.Fatal(err)
		}
		// A TV receiver next to the SU on another channel, as puctl
		// sends it: the rebuilt column mixes the PU's nonces with the
		// SDC's, and the request on channel 1 is still granted.
		eCol, err := front.cli.EColumn(6)
		if err != nil {
			t.Fatal(err)
		}
		pu, err := pisa.NewPU(nil, "tv-once", 6, eCol, suSTP.GroupKey(), params)
		if err != nil {
			t.Fatal(err)
		}
		update, err := pu.Tune(0, wp.Quantize(wp.SMinPUmW))
		if err != nil {
			t.Fatal(err)
		}
		if err := front.cli.SendUpdate(update); err != nil {
			t.Fatalf("%s: PU update: %v", front.name, err)
		}
		// Looked up once the SDC has registered the family, help text included.
		tabled := obs.Default().Counter("pisa_sdc_blind_total", "", obs.Labels{"path": "table"})
		var prepared *pisa.TransmissionRequest
		for i, step := range []struct {
			disclosure  geo.Disclosure // of a first serving
			repeat      bool
			tabled      bool // a hit: the shape's second miss installed it
			ciphertexts uint64
		}{{geo.Disclosure{}, false, false, 32}, {repeat: true, ciphertexts: 32},
			{repeat: true, tabled: true, ciphertexts: 32}, {repeat: true, tabled: true, ciphertexts: 32},
			{rows, false, false, 12}, {repeat: true, ciphertexts: 12}, {repeat: true, tabled: true, ciphertexts: 12}} {
			noncesBefore, tabledBefore := paillier.Nonces(), tabled.Value()
			want := step.ciphertexts + front.extra
			var req *pisa.TransmissionRequest
			if step.repeat {
				req, err = su.RefreshRequest(prepared)
			} else {
				req, err = su.PrepareRequest(eirp, step.disclosure)
				prepared, want = req, want+step.ciphertexts
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := uint64(req.Ciphertexts()); got != step.ciphertexts {
				t.Fatalf("request %d has %d ciphertexts, want %d", i, got, step.ciphertexts)
			}
			resp, err := front.cli.SendRequest(req)
			if err != nil {
				t.Fatalf("%s request %d: %v", front.name, i, err)
			}
			// Every SDC instance behind the front blinds a hit from tables
			// and the two misses of a shape without.
			if got := tabled.Value() - tabledBefore; (got > 0) != step.tabled {
				t.Errorf("%s request %d: %d table-blinded passes, hit on a cached shape: %v",
					front.name, i, got, step.tabled)
			}
			if drawn := paillier.Nonces() - noncesBefore; drawn != want {
				t.Errorf("%s request %d (%d ciphertexts): %d nonces drawn, want %d",
					front.name, i, req.Ciphertexts(), drawn, want)
			}
			shortBefore, _ := paillier.Decrypts()
			grant, err := su.OpenResponse(resp, req, verify)
			if err != nil {
				t.Fatalf("%s request %d: open response: %v", front.name, i, err)
			}
			if !grant.Granted {
				t.Fatalf("%s request %d denied on its free channel", front.name, i)
			}
			if short, _ := paillier.Decrypts(); short == shortBefore {
				t.Errorf("%s request %d: OpenResponse decrypted nothing on the short exponent", front.name, i)
			}
		}
		if _, full := paillier.Decrypts(); full != fullAfterSetup {
			t.Errorf("%s: %d decryptions continued to the full exponent, want 0 (STP and SU.OpenResponse alike)",
				front.name, full-fullAfterSetup)
		}
	}
	for i, c := range counters {
		if got := c.suKeyCalls.Load(); got != 1 {
			t.Errorf("STP client %d fetched the SU key %d times over %d requests, want 1", i, got, requests)
		}
	}
}

// testKeys sets test-size crypto widths: config.Default() carries the
// paper's 2048-bit keys.
func testKeys(cfg *config.File) {
	cfg.PaillierBits, cfg.PlaintextBits, cfg.SignerBits = 768, 60, 512
	cfg.AlphaBits, cfg.BetaBits, cfg.EtaBits = 128, 64, 64
}
