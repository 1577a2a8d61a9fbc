// Package deploy assembles the SDC side of a PISA deployment in one
// process: the channel windows, one SDC per window — encrypted fresh in
// memory, or recovered from its state directory and journalled from
// then on — and the request front over them. sdcd, the load harness,
// pisabench and the tests that need an in-process world all build
// through New, so the boot order, the on-disk layout and the shutdown
// tail are decided here and nowhere else (DESIGN.md §15).
package deploy

import (
	"errors"
	"fmt"
	"io"
	"log/slog"

	"pisa/internal/config"
	"pisa/internal/pisa"
	"pisa/internal/store"
)

// Config describes the SDC side of one deployment.
type Config struct {
	// Issuer names the license issuer.
	Issuer string
	Params pisa.Params
	// STP is the one link every SDC instance and the router share.
	STP pisa.STPService
	// Windows partitions the channel axis into this many windows, one
	// SDC each; 0 or 1 builds a single full-window SDC.
	Windows int
	// Lone builds window Index of Windows alone and no front: one member
	// of a partition whose router runs elsewhere (cmd/sdcrouterd).
	Lone  bool
	Index int
	// Store makes every SDC durable under Store.Dir; an empty Dir keeps
	// the state in memory.
	Store config.StoreSpec
	// Log receives the boot and shutdown lines; nil discards them.
	Log *slog.Logger
}

// Unit is one SDC of a deployment with its durability attachments.
type Unit struct {
	SDC *pisa.SDC
	// Index is the unit's window in the partition.
	Index int
	// Store is the unit's WAL and snapshots, nil in memory; Source says
	// what it booted from.
	Store  *store.Store
	Source string

	keeper *store.Keeper
}

// Deployment is what New built.
type Deployment struct {
	Units []*Unit
	// Front is the SU-facing request path: the SDC's own one-shard router
	// at one window, a router over the windows at several, and nil for a
	// lone window.
	Front *pisa.Router

	log *slog.Logger
}

// NewSTP is a fresh in-process STP for params, armed with the
// fixed-base engine when params.FastExp asks for it — before any role
// copies the group key or registers an SU, so every copy carries its
// tables.
func NewSTP(params pisa.Params) (*pisa.STP, error) {
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

// New boots the SDCs of cfg one window after the other and puts the
// front over them. On error, whatever was already booted is closed
// without a snapshot.
func New(cfg Config) (*Deployment, error) {
	n := max(cfg.Windows, 1)
	windows, err := pisa.Windows(cfg.Params.Watch.Channels, n)
	if err != nil {
		return nil, err
	}
	if cfg.Lone && (cfg.Index < 0 || cfg.Index >= n) {
		return nil, fmt.Errorf("deploy: window %d of a %d-window partition", cfg.Index, n)
	}
	d := &Deployment{log: cfg.Log}
	if d.log == nil {
		d.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	for i, w := range windows {
		if cfg.Lone && i != cfg.Index {
			continue
		}
		u, err := d.boot(cfg, i, w)
		if err != nil {
			d.Close(false)
			return nil, err
		}
		d.Units = append(d.Units, u)
	}
	switch {
	case cfg.Lone:
	case n == 1:
		d.Front = d.Units[0].SDC.Router()
	default:
		services := make([]pisa.ShardService, n)
		for i, u := range d.Units {
			services[i] = u.SDC
		}
		if d.Front, err = pisa.NewRouter(cfg.Issuer, cfg.Params, nil, cfg.STP, services); err != nil {
			d.Close(false)
			return nil, err
		}
	}
	return d, nil
}

// boot recovers (or initialises) the SDC of window i.
func (d *Deployment) boot(cfg Config, i int, w [2]int) (*Unit, error) {
	window := pisa.WithChannelWindow(w[0], w[1])
	dir := cfg.Store.Dir
	if dir == "" {
		d.log.Info("initialising SDC (encrypting budget matrix)", "issuer", cfg.Issuer,
			"channels", cfg.Params.Watch.Channels, "blocks", cfg.Params.Watch.Grid.Blocks())
		sdc, err := pisa.NewSDC(cfg.Issuer, cfg.Params, nil, cfg.STP, window)
		if err != nil {
			return nil, err
		}
		return &Unit{SDC: sdc, Index: i, Source: "fresh (in-memory)"}, nil
	}
	if cfg.Lone || cfg.Windows > 1 {
		// One window keeps its state in the root; each window of a
		// partition, a lone one's included, in shard-i below it.
		dir = store.ShardDir(dir, i)
	}
	storeOpts, err := cfg.Store.Options()
	if err != nil {
		return nil, err
	}
	st, err := store.Open(dir, storeOpts)
	if err != nil {
		return nil, err
	}
	rec := st.Recovery()
	d.log.Info("recovering SDC state", "dir", st.Dir(), "source", rec.Source,
		"snapshotIndex", rec.SnapshotIndex, "tailRecords", rec.TailRecords,
		"tornBytes", rec.TornBytes)
	sdc, err := pisa.RestoreSDC(cfg.Issuer, cfg.Params, nil, cfg.STP, st.SnapshotData(), st.Tail(), window)
	if err != nil {
		st.Close()
		return nil, err
	}
	u := &Unit{SDC: sdc, Index: i, Store: st, Source: rec.Source}
	u.keeper = store.NewKeeper(st, sdc.ExportState,
		cfg.Store.SnapshotInterval(), cfg.Store.SnapshotThreshold())
	// Journal armed only now, after replay: recovered updates are
	// already on disk and must not be re-appended.
	sdc.SetUpdateJournal(func(upd *pisa.PUUpdate) error {
		payload, err := pisa.EncodePUUpdate(upd)
		if err != nil {
			return err
		}
		_, err = u.keeper.Append(pisa.RecordPUUpdate, payload)
		return err
	})
	u.keeper.Start(func(err error) { d.log.Error("background snapshot failed", "dir", dir, "err", err) })
	return u, nil
}

// Close shuts every unit down: it stops the unit's snapshot keeper,
// takes a final snapshot when asked, closes the store, then the SDC. It
// returns what failed. Closing again without a snapshot does nothing
// more, so a deferred Close(false) may follow a graceful Close(true).
func (d *Deployment) Close(snapshot bool) error {
	var errs []error
	for _, u := range d.Units {
		if u.keeper != nil {
			u.keeper.Stop()
			if snapshot {
				err := u.keeper.Snapshot()
				if err != nil {
					d.log.Error("final snapshot failed", "dir", u.Store.Dir(), "err", err)
				} else {
					d.log.Info("final snapshot written", "dir", u.Store.Dir())
				}
				errs = append(errs, err)
			}
			errs = append(errs, u.Store.Close())
		}
		u.SDC.Close()
	}
	return errors.Join(errs...)
}
