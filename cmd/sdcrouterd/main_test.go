package main

import (
	"net"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"pisa/internal/config"
	"pisa/internal/geo"
	"pisa/internal/node"
	"pisa/internal/pisa"
	"pisa/internal/watch"
)

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-no-such-flag"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

func TestRunRequiresShards(t *testing.T) {
	for _, v := range []string{"", "off"} {
		if err := run([]string{"-shards", v, "-stp", "127.0.0.1:1", "-listen", "127.0.0.1:0"}); err == nil {
			t.Errorf("-shards %q accepted: a router with nothing to front", v)
		}
	}
	// A shard takes one address: a replica group is refused by name
	// before the STP is dialled, not by the dial that follows.
	err := run([]string{"-shards", "a:1,a:2;b:1", "-stp", "127.0.0.1:1", "-listen", "127.0.0.1:0"})
	if err == nil || !strings.Contains(err.Error(), "-shards") || !strings.Contains(err.Error(), "replica") {
		t.Errorf("-shards a:1,a:2;b:1: %v, want a refusal naming -shards and replica groups", err)
	}
}

// serve puts srv behind a loopback listener and returns its address.
func serve(t *testing.T, srv interface {
	Serve(net.Listener) error
	Close() error
}) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// TestRunFrontsShardDaemons boots the router daemon in front of two
// channel-windowed SDCs behind sockets, pushes a PU update through its
// broadcast, and checks a request next to the PU and one on a free
// channel against the plaintext oracle: one denied, one granted.
func TestRunFrontsShardDaemons(t *testing.T) {
	if testing.Short() {
		t.Skip("spins real servers")
	}
	cfg := config.Default()
	cfg.Channels, cfg.GridCols, cfg.GridRows = 3, 5, 4
	params, err := cfg.PisaParams()
	if err != nil {
		t.Fatal(err)
	}
	stp, err := pisa.NewSTP(nil, params.PaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	stpAddr := serve(t, node.NewSTPServer(stp, nil, time.Minute))
	windows, err := pisa.Windows(params.Watch.Channels, 2)
	if err != nil {
		t.Fatal(err)
	}
	shardAddrs := ""
	for i, w := range windows {
		sdc, err := pisa.NewSDC("shard", params, nil, stp, pisa.WithChannelWindow(w[0], w[1]))
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		t.Cleanup(sdc.Close)
		if i > 0 {
			shardAddrs += ";"
		}
		shardAddrs += serve(t, node.NewSDCServer(sdc, nil, time.Minute))
	}

	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	probe.Close()
	cfgPath := filepath.Join(t.TempDir(), "pisa.json")
	if err := cfg.Save(cfgPath); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-config", cfgPath, "-listen", addr, "-stp", stpAddr, "-shards", shardAddrs})
	}()
	cli := node.DialSDC(addr, 5*time.Second)
	defer cli.Close()
	deadline := time.Now().Add(60 * time.Second)
	for {
		if _, err := cli.EColumn(0); err == nil {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("sdcrouterd never became ready: %v", err)
		}
		select {
		case err := <-done:
			t.Fatalf("sdcrouterd exited during startup: %v", err)
		case <-time.After(100 * time.Millisecond):
		}
	}

	oracle, err := watch.NewSystem(params.Watch, nil)
	if err != nil {
		t.Fatal(err)
	}
	col, err := cli.EColumn(8)
	if err != nil {
		t.Fatal(err)
	}
	pu, err := pisa.NewPU(nil, "tv-1", 8, col, stp.GroupKey(), params)
	if err != nil {
		t.Fatal(err)
	}
	signal := params.Watch.Quantize(params.Watch.SMinPUmW)
	u, err := pu.Tune(1, signal)
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.SendUpdate(u); err != nil {
		t.Fatalf("PU update through the router: %v", err)
	}
	if err := oracle.UpdatePU(pu.ID(), watch.Registration{Block: 8, Channel: 1, SignalUnits: signal}); err != nil {
		t.Fatal(err)
	}

	su, err := pisa.NewSU(nil, "su-1", 7, params, oracle.Planner(), stp.GroupKey())
	if err != nil {
		t.Fatal(err)
	}
	if err := stp.RegisterSU(su.ID(), su.PublicKey()); err != nil {
		t.Fatal(err)
	}
	vk, err := cli.VerifyKey()
	if err != nil {
		t.Fatal(err)
	}
	maxEIRP := params.Watch.Quantize(params.Watch.SUMaxEIRPmW)
	for _, tc := range []struct {
		channel int
		granted bool
	}{{1, false}, {0, true}} {
		eirp := map[int]int64{tc.channel: maxEIRP}
		want, err := oracle.Evaluate(watch.Request{Block: 7, EIRPUnits: eirp})
		if err != nil {
			t.Fatal(err)
		}
		if want.Granted != tc.granted {
			t.Fatalf("channel %d: oracle grants=%v, the scenario needs %v", tc.channel, want.Granted, tc.granted)
		}
		req, err := su.PrepareRequest(eirp, geo.Disclosure{})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := cli.SendRequest(req)
		if err != nil {
			t.Fatalf("channel %d: request through the router: %v", tc.channel, err)
		}
		grant, err := su.OpenResponse(resp, req, vk)
		if err != nil {
			t.Fatal(err)
		}
		if grant.Granted != want.Granted {
			t.Errorf("channel %d: router granted=%v, oracle %v", tc.channel, grant.Granted, want.Granted)
		}
	}

	// Graceful exit logs the router and shard-client summaries.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("sdcrouterd did not exit on SIGTERM")
	}
}
