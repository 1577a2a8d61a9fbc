// Package deploy assembles the SDC of a PISA deployment in one process:
// one SDC — the full-window controller, or one window of a channel
// partition — encrypted fresh in memory, or recovered from its state
// directory and journalled from then on. sdcd, the load harness,
// pisabench and the tests that need an in-process world all build
// through New, so the boot order, the on-disk layout and the shutdown
// tail are decided here and nowhere else (DESIGN.md §15). A partition is
// one New per window, each in its own process, behind cmd/sdcrouterd.
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

// Config describes the one SDC of a deployment.
type Config struct {
	// Issuer names the license issuer.
	Issuer string
	Params pisa.Params
	// STP is the SDC's link to the STP.
	STP pisa.STPService
	// A non-zero Windows builds window Index of a Windows-window channel
	// partition, whose router runs elsewhere (cmd/sdcrouterd); zero
	// builds the full-window SDC.
	Windows, Index int
	// Store makes the SDC durable under Store.Dir — the full-window SDC
	// in Dir itself, window i in Dir/shard-i; an empty Dir keeps the
	// state in memory.
	Store config.StoreSpec
	// Log receives the boot and shutdown lines; nil discards them.
	Log *slog.Logger
}

// Deployment is the SDC New built, with its durability attachments.
// The full-window SDC's request front is SDC.Router().
type Deployment struct {
	SDC *pisa.SDC
	// Index is the SDC's window in the partition.
	Index int
	// Store is the SDC's WAL and snapshots, nil in memory; Source says
	// what it booted from.
	Store  *store.Store
	Source string

	keeper *store.Keeper
	log    *slog.Logger
}

// New recovers (or initialises) the SDC of cfg.
func New(cfg Config) (*Deployment, error) {
	if cfg.Index < 0 || cfg.Index >= max(cfg.Windows, 1) {
		return nil, fmt.Errorf("deploy: window %d of a %d-window partition", cfg.Index, cfg.Windows)
	}
	lo, hi := 0, cfg.Params.Watch.Channels
	if cfg.Windows != 0 {
		windows, err := pisa.Windows(hi, cfg.Windows)
		if err != nil {
			return nil, err
		}
		lo, hi = windows[cfg.Index][0], windows[cfg.Index][1]
	}
	window := pisa.WithChannelWindow(lo, hi)
	d := &Deployment{Index: cfg.Index, log: cfg.Log}
	if d.log == nil {
		d.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	dir := cfg.Store.Dir
	if dir == "" {
		d.log.Info("initialising SDC (encrypting budget matrix)", "issuer", cfg.Issuer,
			"channels", cfg.Params.Watch.Channels, "blocks", cfg.Params.Watch.Grid.Blocks())
		sdc, err := pisa.NewSDC(cfg.Issuer, cfg.Params, nil, cfg.STP, window)
		if err != nil {
			return nil, err
		}
		d.SDC, d.Source = sdc, "fresh (in-memory)"
		return d, nil
	}
	if cfg.Windows != 0 {
		// Each window of a partition keeps its state in shard-i, at one
		// window too.
		dir = store.ShardDir(dir, cfg.Index)
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
	d.SDC, d.Store, d.Source = sdc, st, rec.Source
	d.keeper = store.NewKeeper(st, sdc.ExportState,
		cfg.Store.SnapshotInterval(), cfg.Store.SnapshotThreshold())
	// Journal armed only now, after replay: recovered updates are
	// already on disk and must not be re-appended.
	sdc.SetUpdateJournal(func(upd *pisa.PUUpdate) error {
		payload, err := pisa.EncodePUUpdate(upd)
		if err != nil {
			return err
		}
		_, err = d.keeper.Append(pisa.RecordPUUpdate, payload)
		return err
	})
	d.keeper.Start(func(err error) { d.log.Error("background snapshot failed", "dir", dir, "err", err) })
	return d, nil
}

// Close shuts the deployment down: it stops the snapshot keeper, takes a
// final snapshot when asked, closes the store, then the SDC. It returns
// what failed. Closing again without a snapshot does nothing more, so a
// deferred Close(false) may follow a graceful Close(true).
func (d *Deployment) Close(snapshot bool) error {
	var errs []error
	if d.keeper != nil {
		d.keeper.Stop()
		if snapshot {
			err := d.keeper.Snapshot()
			if err != nil {
				d.log.Error("final snapshot failed", "dir", d.Store.Dir(), "err", err)
			} else {
				d.log.Info("final snapshot written", "dir", d.Store.Dir())
			}
			errs = append(errs, err)
		}
		errs = append(errs, d.Store.Close())
	}
	d.SDC.Close()
	return errors.Join(errs...)
}
