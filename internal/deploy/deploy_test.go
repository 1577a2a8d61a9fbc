package deploy_test

import (
	"crypto/rand"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"pisa/internal/config"
	"pisa/internal/deploy"
	"pisa/internal/geo"
	"pisa/internal/pisa"
	"pisa/internal/propagation"
	"pisa/internal/watch"
)

// testParams is a tiny deployment: 3 channels over a 5x4 grid of 10 m
// blocks at test key sizes.
func testParams(t *testing.T) pisa.Params {
	t.Helper()
	g, err := geo.NewGrid(5, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	return pisa.TestParams(watch.Params{
		Channels:    3,
		Grid:        g,
		UnitsPerMW:  1e9,
		SUMaxEIRPmW: 4000,
		SMinPUmW:    1e-5,
		DeltaInt:    32,
		Secondary:   propagation.LogDistance{RefLossDB: 40, Exponent: 3.5},
		WorstCase:   propagation.LogDistance{RefLossDB: 60, Exponent: 4},
	})
}

// TestFrontPerShape pins which front each shape of deployment gets: the
// full-window SDC is its own one-shard router, a window of a partition
// has none (its router runs elsewhere).
func TestFrontPerShape(t *testing.T) {
	params := testParams(t)
	stp, err := pisa.NewSTP(rand.Reader, params.PaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		cfg    deploy.Config
		window [2]int
		front  bool
	}{
		{"one window", deploy.Config{}, [2]int{0, 3}, true},
		{"window 2 of 3", deploy.Config{Windows: 3, Index: 2}, [2]int{2, 3}, false},
	} {
		tc.cfg.Issuer, tc.cfg.Params, tc.cfg.STP = "sdc", params, stp
		d, err := deploy.New(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if (d.SDC.Router() != nil) != tc.front {
			t.Errorf("%s: front %v, want %v", tc.name, d.SDC.Router() != nil, tc.front)
		}
		if lo, hi := d.SDC.ChannelWindow(); [2]int{lo, hi} != tc.window || d.Index != tc.cfg.Index {
			t.Errorf("%s: window %d = [%d, %d), want %d = %v", tc.name, d.Index, lo, hi, tc.cfg.Index, tc.window)
		}
		if err := d.Close(false); err != nil {
			t.Errorf("%s: Close: %v", tc.name, err)
		}
	}
	for _, cfg := range []deploy.Config{{Windows: 2, Index: 2}, {Windows: 2, Index: -1}, {Index: 1}} {
		cfg.Issuer, cfg.Params, cfg.STP = "sdc", params, stp
		if _, err := deploy.New(cfg); err == nil {
			t.Errorf("window %d of a %d-window partition accepted", cfg.Index, cfg.Windows)
		}
	}
}

// TestCrashRecovery boots a durable deployment, snapshots it on a clean
// shutdown, reboots it, applies more updates that reach only the WAL,
// then crashes it — closed without a snapshot, with a torn frame behind
// the last record, as after kill -9 mid-append — and recovers it from the
// same directory. The recovered deployment must decide as a control that
// never crashed and as the watch oracle, resume the snapshot's license
// serial at one window, leave the WAL as it found it, and keep sdcd's
// on-disk layout. At two windows it is the partition of two
// `sdcd -shard-index` daemons behind cmd/sdcrouterd: one deploy.New per
// window under pisa.NewRouter, each window torn and recovered.
func TestCrashRecovery(t *testing.T) {
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("windows=%d", n), func(t *testing.T) { testCrashRecovery(t, n) })
	}
}

// partition is the SDC side testCrashRecovery boots: at one window the
// full-window SDC with its own front, at n one SDC per window behind a
// router.
type partition struct {
	front *pisa.Router
	ds    []*deploy.Deployment
}

func (p *partition) Close(snapshot bool) error {
	var errs []error
	for _, d := range p.ds {
		errs = append(errs, d.Close(snapshot))
	}
	return errors.Join(errs...)
}

func testCrashRecovery(t *testing.T, n int) {
	params := testParams(t)
	wp := params.Watch
	stp, err := pisa.NewSTP(rand.Reader, params.PaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	durable := config.StoreSpec{Dir: root, Fsync: "always"}
	build := func(spec config.StoreSpec) *partition {
		t.Helper()
		windows := n
		if n == 1 {
			windows = 0
		}
		p := &partition{}
		services := make([]pisa.ShardService, n)
		for i := range services {
			d, err := deploy.New(deploy.Config{Issuer: "sdc", Params: params, STP: stp, Windows: windows, Index: i, Store: spec})
			if err != nil {
				t.Fatal(err)
			}
			p.ds = append(p.ds, d)
			services[i] = d.SDC
		}
		p.front = p.ds[0].SDC.Router()
		if n > 1 {
			var err error
			if p.front, err = pisa.NewRouter("sdc", params, nil, stp, services); err != nil {
				t.Fatal(err)
			}
		}
		return p
	}
	control := build(config.StoreSpec{})
	defer control.Close(false)
	oracle, err := watch.NewSystem(wp, nil)
	if err != nil {
		t.Fatal(err)
	}

	pus := map[watch.PUID]*pisa.PU{}
	tune := func(d *partition, id watch.PUID, block geo.BlockID, channel int, signal int64) {
		t.Helper()
		pu, ok := pus[id]
		if !ok {
			eCol, err := control.front.EColumn(block)
			if err != nil {
				t.Fatal(err)
			}
			if pu, err = pisa.NewPU(rand.Reader, id, block, eCol, stp.GroupKey(), params); err != nil {
				t.Fatal(err)
			}
			pus[id] = pu
		}
		u, err := pu.Tune(channel, signal)
		if err != nil {
			t.Fatal(err)
		}
		for _, front := range []*pisa.Router{d.front, control.front} {
			if err := front.HandlePUUpdate(u); err != nil {
				t.Fatal(err)
			}
		}
		if err := oracle.UpdatePU(id, watch.Registration{Block: block, Channel: channel, SignalUnits: signal}); err != nil {
			t.Fatal(err)
		}
	}

	su, err := pisa.NewSU(rand.Reader, "su-1", 7, params, control.front.Planner(), stp.GroupKey())
	if err != nil {
		t.Fatal(err)
	}
	if err := stp.RegisterSU(su.ID(), su.PublicKey()); err != nil {
		t.Fatal(err)
	}
	// decide asks every shape of the check through front, the control and
	// the oracle, requires one decision from all three, and returns the
	// serials front issued.
	decide := func(front *pisa.Router) []uint64 {
		t.Helper()
		var serials []uint64
		for c := 0; c < wp.Channels; c++ {
			eirp := map[int]int64{c: wp.Quantize(wp.SUMaxEIRPmW)}
			want, err := oracle.Evaluate(watch.Request{Block: 7, EIRPUnits: eirp})
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range []*pisa.Router{front, control.front} {
				req, err := su.PrepareRequest(eirp, geo.Disclosure{})
				if err != nil {
					t.Fatal(err)
				}
				resp, err := f.ProcessRequest(req)
				if err != nil {
					t.Fatal(err)
				}
				grant, err := su.OpenResponse(resp, req, f.VerifyKey())
				if err != nil {
					t.Fatal(err)
				}
				if grant.Granted != want.Granted {
					t.Fatalf("channel %d: granted %v, oracle %v", c, grant.Granted, want.Granted)
				}
				if f == front {
					serials = append(serials, resp.License.Serial)
				}
			}
		}
		return serials
	}
	sigMin := wp.Quantize(wp.SMinPUmW)

	// Boot 1: updates and decisions, then a clean shutdown's snapshot.
	d := build(durable)
	tune(d, "tv-1", 8, 1, sigMin)
	tune(d, "tv-2", 3, 0, 16*sigMin)
	serials := decide(d.front)
	snapSerial := serials[len(serials)-1]
	if err := d.Close(true); err != nil {
		t.Fatal(err)
	}

	// Boot 2: updates that reach only the WAL, then the crash.
	d = build(durable)
	tune(d, "tv-3", 10, 2, 4*sigMin)
	tune(d, "tv-1", 8, 0, 2*sigMin) // retune: replay must supersede the snapshot's column
	var dirs []string
	var last []uint64
	for _, u := range d.ds {
		dirs = append(dirs, u.Store.Dir())
		last = append(last, u.Store.Stats().LastIndex)
	}
	if err := d.Close(false); err != nil {
		t.Fatal(err)
	}
	torn := []byte{0x40, 0x00, 0x00, 0x00, 0xde, 0xad} // header prefix + 2 stray bytes
	for _, dir := range dirs {
		segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
		if err != nil || len(segs) == 0 {
			t.Fatalf("no WAL segment to tear in %s (err %v)", dir, err)
		}
		sort.Strings(segs)
		f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(torn); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Boot 3: recover.
	d = build(durable)
	wantDirs := []string{root}
	if n > 1 {
		wantDirs = nil
		for i := 0; i < n; i++ {
			wantDirs = append(wantDirs, filepath.Join(root, fmt.Sprintf("shard-%d", i)))
		}
	}
	for i, u := range d.ds {
		if u.Store.Dir() != wantDirs[i] {
			t.Errorf("window %d keeps its state in %s, want %s", i, u.Store.Dir(), wantDirs[i])
		}
		rec := u.Store.Recovery()
		if rec.Source != "snapshot+wal" || rec.TailRecords != 2 || rec.TornBytes != int64(len(torn)) {
			t.Errorf("window %d recovered from %s with %d tail records and %d torn bytes; want snapshot+wal, 2, %d",
				i, rec.Source, rec.TailRecords, rec.TornBytes, len(torn))
		}
		if got := u.Store.Stats().LastIndex; got != last[i] {
			t.Errorf("window %d: WAL last index %d after recovery, %d before the crash: replay was journalled again", i, got, last[i])
		}
	}
	serials = decide(d.front)
	if n == 1 && serials[0] != snapSerial+1 {
		t.Errorf("first license after recovery has serial %d, want %d (the snapshot's %d resumed)", serials[0], snapSerial+1, snapSerial)
	}
	pusAt := d.ds[n-1].SDC.Summary().PUs
	if err := d.Close(false); err != nil {
		t.Fatal(err)
	}

	// The last window as a -shard-index daemon runs it keeps its state in
	// shard-i below the same root, at one window too.
	u, err := deploy.New(deploy.Config{Issuer: "sdc", Params: params, STP: stp,
		Windows: n, Index: n - 1, Store: durable})
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close(false)
	if want := filepath.Join(root, fmt.Sprintf("shard-%d", n-1)); u.Store.Dir() != want {
		t.Errorf("lone window %d of %d keeps its state in %s, want %s", n-1, n, u.Store.Dir(), want)
	}
	if n > 1 && u.SDC.Summary().PUs != pusAt {
		t.Errorf("lone window recovered %d PUs, the partition's window %d %d", u.SDC.Summary().PUs, n-1, pusAt)
	}
}
