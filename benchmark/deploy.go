package main

import (
	"crypto/rsa"
	"fmt"
	"net"
	"os"

	"pisa/internal/geo"
	"pisa/internal/node"
	"pisa/internal/paillier"
	"pisa/internal/pisa"
	"pisa/internal/pisa/shard"
	"pisa/internal/store"
	"pisa/internal/watch"
)

// deployment is a running set of roles as an SU or PU sees it. Every
// field is filled from the repo's public constructors; the benchmark
// adds nothing but the optional decorators of trace.go.
type deployment struct {
	params  pisa.Params
	group   *paillier.PublicKey
	planner *watch.Planner
	verify  *rsa.PublicKey

	register func(id string, pk *paillier.PublicKey) error
	process  func(*pisa.TransmissionRequest) (*pisa.Response, error)
	update   func(*pisa.PUUpdate) error
	eColumn  func(geo.BlockID) ([]int64, error)

	sdcs    []*pisa.SDC               // every SDC instance, for CacheStats
	clients []func() node.ClientStats // every RPC client, for retries and dials
	suWire  *meter                    // SU<->SDC socket; nil in process or untraced
	stpWire *meter                    // SDC<->STP socket; nil in process or untraced
	closers []func()                  // run in reverse order by close
}

func (d *deployment) onClose(fn func()) { d.closers = append(d.closers, fn) }

func (d *deployment) close() {
	for i := len(d.closers) - 1; i >= 0; i-- {
		d.closers[i]()
	}
	d.closers = nil
}

func (d *deployment) cacheStats() pisa.CacheCounters {
	var sum pisa.CacheCounters
	for _, s := range d.sdcs {
		c := s.CacheStats()
		sum.Hits += c.Hits
		sum.Misses += c.Misses
		sum.Stale += c.Stale
		sum.Expired += c.Expired
	}
	return sum
}

func (d *deployment) clientStats() (retries, dials uint64) {
	for _, fn := range d.clients {
		s := fn()
		retries += s.Retries
		dials += s.Dials
	}
	return retries, dials
}

// newSTP is the STP as cmd/stpd brings it up: generated group key,
// fixed-base engine armed per the params, constructor-default
// parallelism.
func newSTP(params pisa.Params) (*pisa.STP, error) {
	stp, err := pisa.NewSTP(nil, params.PaillierBits)
	if err != nil {
		return nil, err
	}
	if params.FastExp {
		if err := stp.SetFastExp(params.FastExpWindow, params.ShortExpBits); err != nil {
			return nil, err
		}
	}
	return stp, nil
}

// build stands up the workload's topology. walDir is used only by
// durable workloads; tr may be nil.
func build(spec workloadSpec, params pisa.Params, tr *tracer, walDir string) (*deployment, error) {
	d := &deployment{params: params}
	var err error
	if spec.topo == topoMono {
		err = d.buildMono(spec, tr, walDir)
	} else {
		err = d.buildTCP(spec, tr)
	}
	if err != nil {
		d.close()
		return nil, fmt.Errorf("build %s: %w", spec.name, err)
	}
	return d, nil
}

// buildMono wires SU -> SDC -> STP with direct calls.
func (d *deployment) buildMono(spec workloadSpec, tr *tracer, walDir string) error {
	stp, err := newSTP(d.params)
	if err != nil {
		return err
	}
	var opts []pisa.SDCOption
	if spec.durable {
		st, err := store.Open(walDir, store.Options{})
		if err != nil {
			return err
		}
		d.onClose(func() {
			st.Close()
			os.RemoveAll(walDir)
		})
		opts = append(opts, pisa.WithUpdateJournal(tr.journal(func(u *pisa.PUUpdate) (int, error) {
			payload, err := pisa.EncodePUUpdate(u)
			if err != nil {
				return 0, err
			}
			_, err = st.Append(pisa.RecordPUUpdate, payload)
			return len(payload), err
		}, "sdc.update")))
	}
	sdc, err := pisa.NewSDC("bench-sdc", d.params, nil, tr.stp(stp, "stp.convert", "sdc.process"), opts...)
	if err != nil {
		return err
	}
	d.onClose(sdc.Close)
	d.sdcs = []*pisa.SDC{sdc}
	backend := tr.backend(sdc, layerSDC, "sdc", "")
	d.group, d.planner, d.verify = stp.GroupKey(), sdc.Planner(), sdc.VerifyKey()
	d.register = stp.RegisterSU
	d.process = backend.ProcessRequest
	d.update = backend.HandlePUUpdate
	d.eColumn = backend.EColumn
	return nil
}

// listen opens a loopback listener, metered when the run is traced.
func (d *deployment) listen(tr *tracer) (net.Listener, *meter, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil || tr == nil {
		return ln, nil, err
	}
	m := &meter{tr: tr}
	return &meteredListener{Listener: ln, m: m}, m, nil
}

// serve runs srv on ln until the deployment closes.
func (d *deployment) serve(srv interface {
	Serve(net.Listener) error
	Close() error
}, ln net.Listener) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns nil once Close is called; a failed accept surfaces as request errors
	}()
	d.onClose(func() {
		srv.Close()
		<-done
	})
}

// dialSTP opens one more client to the STP server, the way each daemon
// holds its own.
func (d *deployment) dialSTP(addr string) (*node.STPClient, error) {
	c, err := node.DialSTP(addr, 0)
	if err != nil {
		return nil, err
	}
	d.onClose(func() { c.Close() })
	d.clients = append(d.clients, c.Stats)
	return c, nil
}

func (d *deployment) dialSDC(addr string) *node.SDCClient {
	c := node.DialSDC(addr, 0)
	d.onClose(func() { c.Close() })
	d.clients = append(d.clients, c.Stats)
	return c
}

// buildTCP wires the roles as the daemons run them: an STP server, an
// SDC server in front of either one SDC or a router over two windowed
// shards (each behind its own server), and the SU side reaching all of
// it through node clients.
func (d *deployment) buildTCP(spec workloadSpec, tr *tracer) error {
	stp, err := newSTP(d.params)
	if err != nil {
		return err
	}
	stpLn, stpWire, err := d.listen(tr)
	if err != nil {
		return err
	}
	d.stpWire = stpWire
	d.serve(node.NewSTPServer(stp, nil, 0), stpLn)
	stpAddr := stpLn.Addr().String()

	var front node.SDCBackend
	if spec.topo == topoTCP {
		c, err := d.dialSTP(stpAddr)
		if err != nil {
			return err
		}
		sdc, err := pisa.NewSDC("bench-sdc", d.params, nil, tr.stp(c, "stp.rpc", "sdc.process"))
		if err != nil {
			return err
		}
		d.onClose(sdc.Close)
		d.sdcs = []*pisa.SDC{sdc}
		front = tr.backend(sdc, layerSDC, "sdc", "sdc.call")
	} else {
		windows, err := shard.Windows(d.params.Watch.Channels, 2)
		if err != nil {
			return err
		}
		services := make([]shard.Service, len(windows))
		for i, w := range windows {
			c, err := d.dialSTP(stpAddr)
			if err != nil {
				return err
			}
			name := fmt.Sprintf("sdc%d", i)
			sdc, err := pisa.NewSDC("bench-shard", d.params, nil,
				tr.stp(c, fmt.Sprintf("stp%d.rpc", i), name+".process"), pisa.WithChannelWindow(w[0], w[1]))
			if err != nil {
				return err
			}
			d.onClose(sdc.Close)
			d.sdcs = append(d.sdcs, sdc)
			ln, _, err := d.listen(nil)
			if err != nil {
				return err
			}
			d.serve(node.NewSDCServer(tr.backend(sdc, layerSDC, name, fmt.Sprintf("shard%d.call", i)), nil, 0), ln)
			services[i] = tr.shardService(d.dialSDC(ln.Addr().String()), i)
		}
		c, err := d.dialSTP(stpAddr)
		if err != nil {
			return err
		}
		router, err := shard.NewRouter("bench-router", d.params, nil, c, services)
		if err != nil {
			return err
		}
		front = tr.backend(router, layerRouter, "router", "sdc.call")
	}

	suLn, suWire, err := d.listen(tr)
	if err != nil {
		return err
	}
	d.suWire = suWire
	d.serve(node.NewSDCServer(front, nil, 0), suLn)

	// The SU and PU side, as suctl and puctl reach a deployment.
	suSTP, err := d.dialSTP(stpAddr)
	if err != nil {
		return err
	}
	suSDC := d.dialSDC(suLn.Addr().String())
	if d.planner, err = watch.NewPlanner(d.params.Watch); err != nil {
		return err
	}
	if d.verify, err = suSDC.VerifyKey(); err != nil {
		return err
	}
	d.group = suSTP.GroupKey()
	d.register = suSTP.RegisterSU
	d.process = func(req *pisa.TransmissionRequest) (*pisa.Response, error) {
		id := tr.begin(req.SUID, layerWire, "sdc.call", "", req.Ciphertexts())
		defer tr.end(id, 0)
		return suSDC.SendRequest(req)
	}
	d.update = func(u *pisa.PUUpdate) error {
		id := tr.begin(string(u.PUID), layerWire, "sdc.call", "", len(u.Cts))
		defer tr.end(id, 0)
		return suSDC.SendUpdate(u)
	}
	d.eColumn = suSDC.EColumn
	return nil
}
