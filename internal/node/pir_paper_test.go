package node_test

import (
	"context"
	"net"
	"testing"
	"time"

	"pisa/internal/config"
	"pisa/internal/geo"
	"pisa/internal/node"
	"pisa/internal/pir"
	"pisa/internal/watch"
)

// TestPIRBackendMatchesOracle is the acceptance cross-check: on the
// paper-scale grid (config.Paper(): 100 channels x 600 blocks), every
// availability bit a fleet of in-process replicas serves must equal an
// independent watch oracle's verdict after the same PU churn.
func TestPIRBackendMatchesOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale sweep over real servers")
	}
	cfg := config.Paper()
	wp, err := cfg.WatchParams()
	if err != nil {
		t.Fatal(err)
	}
	var addrs []string
	var dbs []*pir.Database
	for i := 0; i < 3; i++ {
		db, err := pir.NewDatabase(wp)
		if err != nil {
			t.Fatal(err)
		}
		srv := node.NewPIRServer(db, nil, time.Minute)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = srv.Serve(ln) }()
		t.Cleanup(func() { srv.Close() })
		addrs = append(addrs, ln.Addr().String())
		dbs = append(dbs, db)
	}

	oracle, err := watch.NewSystem(wp, nil)
	if err != nil {
		t.Fatal(err)
	}
	// PU churn across the grid: weak and strong receivers on a few
	// channels, applied to every replica and to the oracle.
	updates := []pir.Update{
		{PUID: "tv-1", Block: 17, Channel: 3, SignalUnits: wp.Quantize(wp.SMinPUmW)},
		{PUID: "tv-2", Block: 250, Channel: 42, SignalUnits: wp.Quantize(1e-4)},
		{PUID: "tv-3", Block: 599, Channel: 99, SignalUnits: wp.Quantize(wp.SMinPUmW)},
		{PUID: "tv-4", Block: 301, Channel: 3, SignalUnits: wp.Quantize(5e-5)},
	}
	for i := range updates {
		u := &updates[i]
		for _, db := range dbs {
			if err := db.ApplyUpdate(u); err != nil {
				t.Fatal(err)
			}
		}
		reg := watch.Registration{Block: u.Block, Channel: u.Channel, SignalUnits: u.SignalUnits}
		if err := oracle.UpdatePU(u.PUID, reg); err != nil {
			t.Fatal(err)
		}
	}

	opts, err := cfg.RPC.Options()
	if err != nil {
		t.Fatal(err)
	}
	c, err := node.DialPIRWith(opts, 3, addrs...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m := c.Meta()
	if m.Blocks != 600 || m.Channels != 100 {
		t.Fatalf("geometry %dx%d, want 600x100", m.Blocks, m.Channels)
	}
	// Full-grid sweep: every (block, channel) bit vs the oracle.
	for b := 0; b < m.Blocks; b++ {
		row, _, err := c.Fetch(context.Background(), geo.BlockID(b))
		if err != nil {
			t.Fatalf("fetch block %d: %v", b, err)
		}
		for ch := 0; ch < m.Channels; ch++ {
			max, err := oracle.MaxEIRPUnits(ch, geo.BlockID(b))
			if err != nil {
				t.Fatal(err)
			}
			if got, want := pir.BitmapHas(row, ch), max >= m.MinEIRPUnits; got != want {
				t.Fatalf("block %d channel %d: PIR says available=%v, oracle max %d vs threshold %d",
					b, ch, got, max, m.MinEIRPUnits)
			}
		}
	}
}
