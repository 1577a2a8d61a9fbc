package pisa

import (
	"bytes"
	"crypto/rand"
	"encoding/gob"
	"fmt"
	"math/big"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pisa/internal/geo"
	"pisa/internal/matrix"
	"pisa/internal/store"
	"pisa/internal/watch"
)

// recordingJournal is an update journal that keeps every update it is
// handed as a WAL record, or refuses them all while failing is set.
type recordingJournal struct {
	mu      sync.Mutex
	failing bool
	recs    []store.Record
}

func (j *recordingJournal) append(u *PUUpdate) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.failing {
		return fmt.Errorf("disk full")
	}
	payload, err := EncodePUUpdate(u)
	if err != nil {
		return err
	}
	j.recs = append(j.recs, store.Record{Index: uint64(len(j.recs) + 1), Type: RecordPUUpdate, Payload: payload})
	return nil
}

func (j *recordingJournal) records() []store.Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]store.Record(nil), j.recs...)
}

// parityDeployment is a durable deployment with the plaintext oracle
// attached and a recording journal armed.
func parityDeployment(t *testing.T) (*durableDeployment, *recordingJournal) {
	t.Helper()
	d := newDurableDeployment(t)
	oracle, err := watch.NewSystem(d.params.Watch, nil)
	if err != nil {
		t.Fatal(err)
	}
	d.oracle = oracle
	j := &recordingJournal{}
	d.sdc.SetUpdateJournal(j.append)
	return d, j
}

// assertParity runs one request per (SU, channel) through sdc and
// checks every decision against the oracle; it returns the grants and
// denials it saw.
func assertParity(t *testing.T, d *deployment, sdc *SDC, step string, sus []*SU) (grants, denials int) {
	t.Helper()
	for _, su := range sus {
		for c := 0; c < d.params.Watch.Channels; c++ {
			eirp := map[int]int64{c: maxEIRP(d)}
			req, err := su.PrepareRequest(eirp, geo.Disclosure{})
			if err != nil {
				t.Fatal(err)
			}
			resp, err := sdc.ProcessRequest(req)
			if err != nil {
				t.Fatalf("%s: ProcessRequest: %v", step, err)
			}
			grant, err := su.OpenResponse(resp, req, sdc.VerifyKey())
			if err != nil {
				t.Fatalf("%s: OpenResponse: %v", step, err)
			}
			want := d.oracleDecision(t, su.block, eirp)
			if grant.Granted != want {
				t.Fatalf("%s: %s on channel %d granted=%v, oracle says %v", step, su.ID(), c, grant.Granted, want)
			}
			if want {
				grants++
			} else {
				denials++
			}
		}
	}
	return grants, denials
}

// TestPUSlotParityThroughRestore puts PUs in the first and the last
// slot of one packed group through every way a stored update changes
// hands — first update, replacement, Off, a journal failure that rolls a
// replacement back, and RestoreSDC from a snapshot plus the WAL tail
// written after it — and checks after each step that every decision
// equals the plaintext WATCH oracle's and that the restored budgets
// decrypt to the live ones.
func TestPUSlotParityThroughRestore(t *testing.T) {
	d, journal := parityDeployment(t)
	k := d.sdc.codec.Slots()
	if k < 2 {
		t.Fatalf("fixture packs %d slots per ciphertext, need 2", k)
	}
	// Blocks k and 2k-1: group 1, slots 0 and k-1.
	blockA, blockB := geo.BlockID(k), geo.BlockID(2*k-1)
	puA := d.newPU(t, "tv-a", blockA)
	puB := d.newPU(t, "tv-b", blockB)
	sig := d.params.Watch.Quantize(d.params.Watch.SMinPUmW)
	sus := []*SU{
		d.newSU(t, "su-near-a", blockA),
		d.newSU(t, "su-near-b", blockB),
		d.newSU(t, "su-far", geo.BlockID(d.params.Watch.Grid.Blocks()-1)),
	}
	var grants, denials int
	parity := func(step string, sdc *SDC) {
		t.Helper()
		g, n := assertParity(t, d.deployment, sdc, step, sus)
		grants, denials = grants+g, denials+n
	}

	d.tune(t, puA, 1, sig)
	parity("first update in slot 0", d.sdc)
	d.tune(t, puB, 2, sig)
	parity("first update in slot k-1", d.sdc)
	d.tune(t, puA, 0, 4*sig)
	parity("slot 0 replaced", d.sdc)
	d.off(t, puB)
	parity("slot k-1 off", d.sdc)

	journal.mu.Lock()
	journal.failing = true
	journal.mu.Unlock()
	u, err := puA.Tune(2, sig)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.sdc.HandlePUUpdate(u); err == nil {
		t.Fatal("update acknowledged despite journal failure")
	}
	journal.mu.Lock()
	journal.failing = false
	journal.mu.Unlock()
	parity("slot 0 replacement rolled back", d.sdc)

	snap, err := d.sdc.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	logged := len(journal.records())
	d.tune(t, puB, 1, 2*sig)
	d.tune(t, puA, 2, sig)
	parity("after the snapshot", d.sdc)
	tail := journal.records()[logged:]
	if len(tail) != 2 {
		t.Fatalf("WAL tail holds %d records, want 2", len(tail))
	}

	restored, err := RestoreSDC("sdc-test", d.params, nil, d.stp, snap, tail)
	if err != nil {
		t.Fatalf("RestoreSDC: %v", err)
	}
	defer restored.Close()
	d.assertSameState(t, d.sdc, restored)
	parity("restored from snapshot and tail", restored)
	d.sdc = restored // d.tune now drives the restored controller
	d.off(t, puA)
	parity("slot 0 off after restore", restored)

	if grants == 0 || denials == 0 {
		t.Fatalf("fixture too weak: %d grants, %d denials", grants, denials)
	}
}

// TestMalformedUpdateRefusedBeforeJournal: an update carrying a
// ciphertext outside (0, n^2) of the group key is refused before it is
// registered or journaled, so it cannot fail the later rebuilds of its
// slot group: another PU's update in the same group still succeeds, and
// its decisions match the oracle.
func TestMalformedUpdateRefusedBeforeJournal(t *testing.T) {
	d, journal := parityDeployment(t)
	k := d.sdc.codec.Slots()
	bad := d.newPU(t, "bad", geo.BlockID(k))
	u, err := bad.Off()
	if err != nil {
		t.Fatal(err)
	}
	u.Cts[1].C = new(big.Int).Set(d.sdc.group.NSquared())
	if err := d.sdc.HandlePUUpdate(u); err == nil || !strings.Contains(err.Error(), "outside (0, n^2)") {
		t.Fatalf("malformed update: err = %v, want a refusal naming the ciphertext range", err)
	}
	if recs := journal.records(); len(recs) != 0 {
		t.Fatalf("malformed update journaled: %d records", len(recs))
	}
	if sum := d.sdc.Summary(); sum.PUs != 0 {
		t.Fatalf("malformed update registered: %+v", sum)
	}

	good := d.newPU(t, "good", geo.BlockID(2*k-1))
	d.tune(t, good, 1, d.params.Watch.Quantize(d.params.Watch.SMinPUmW))
	sus := []*SU{d.newSU(t, "su-near", good.block), d.newSU(t, "su-far", 0)}
	if g, n := assertParity(t, d.deployment, d.sdc, "good update after a bad one", sus); g == 0 || n == 0 {
		t.Fatalf("fixture too weak: %d grants, %d denials", g, n)
	}
	if _, err := RestoreSDC("sdc-test", d.params, nil, d.stp, nil, journal.records()); err != nil {
		t.Fatalf("restart from the WAL: %v", err)
	}
}

// TestPUWithoutLayoutRefusedByName: a PU built without the deployment's
// Params packs Table I's widths, not TestParams', and the SDC refuses its
// update with an error that names NewPU's layout argument.
func TestPUWithoutLayoutRefusedByName(t *testing.T) {
	d := newDeployment(t)
	col, err := d.sdc.EColumn(8)
	if err != nil {
		t.Fatal(err)
	}
	pu, err := NewPU(rand.Reader, "tv-default", 8, col, d.sdc.group)
	if err != nil {
		t.Fatal(err)
	}
	u, err := pu.Tune(1, d.params.Watch.Quantize(d.params.Watch.SMinPUmW))
	if err != nil {
		t.Fatal(err)
	}
	err = d.sdc.HandlePUUpdate(u)
	if err == nil || !strings.Contains(err.Error(), "NewPU's layout argument") {
		t.Fatalf("err = %v, want a refusal naming NewPU's layout argument", err)
	}
}

// TestRestoreRefusesOldLayoutByName: a snapshot written before PUs
// encrypted into their slot is refused with an error that tells the
// operator to let the PUs re-send, and a WAL record without a layout
// with the error that names the layout a PU must pack for.
func TestRestoreRefusesOldLayoutByName(t *testing.T) {
	d := newDurableDeployment(t)
	sig := d.params.Watch.Quantize(d.params.Watch.SMinPUmW)

	t.Run("version 1 snapshot", func(t *testing.T) {
		var old bytes.Buffer
		err := gob.NewEncoder(&old).Encode(struct {
			Version int
			Serial  uint64
			Packed  bool
			NPack   *matrix.Packed
		}{Version: 1, Packed: true, NPack: d.sdc.PackedBudgetSnapshot()})
		if err != nil {
			t.Fatal(err)
		}
		_, err = RestoreSDC("sdc-test", d.params, nil, d.stp, old.Bytes(), nil)
		if err == nil || !strings.Contains(err.Error(), "version 1") || !strings.Contains(err.Error(), "let the PUs re-send") {
			t.Fatalf("err = %v, want a refusal of version 1 telling the PUs to re-send", err)
		}
	})

	t.Run("WAL record without a layout", func(t *testing.T) {
		u, err := d.newPU(t, "tv-old", 8).Tune(1, sig)
		if err != nil {
			t.Fatal(err)
		}
		u.Slots, u.SlotBits = 0, 0
		payload, err := EncodePUUpdate(u)
		if err != nil {
			t.Fatal(err)
		}
		tail := []store.Record{{Index: 7, Type: RecordPUUpdate, Payload: payload}}
		_, err = RestoreSDC("sdc-test", d.params, nil, d.stp, nil, tail)
		if err == nil || !strings.Contains(err.Error(), "record 7") || !strings.Contains(err.Error(), "NewPU's layout argument") {
			t.Fatalf("err = %v, want a refusal of record 7 naming NewPU's layout argument", err)
		}
	})
}

// TestConcurrentResendsRestoreInInstallOrder: two updates from one PU
// race, and the journal holds the first to reach it until a second call
// arrives or 200 ms pass. The slot group's update lock keeps the second
// update out until the first is appended, so the log lists the updates in
// the order they were installed, and replaying it from an empty snapshot
// equals the live state.
func TestConcurrentResendsRestoreInInstallOrder(t *testing.T) {
	d := newDurableDeployment(t)
	journal := &recordingJournal{}
	var calls atomic.Int32
	firstIn, secondIn := make(chan struct{}), make(chan struct{})
	d.sdc.SetUpdateJournal(func(u *PUUpdate) error {
		if calls.Add(1) == 1 {
			close(firstIn)
			select {
			case <-secondIn:
			case <-time.After(200 * time.Millisecond):
			}
		} else {
			close(secondIn)
		}
		return journal.append(u)
	})
	pu := d.newPU(t, "tv-1", 8)
	sig := d.params.Watch.Quantize(d.params.Watch.SMinPUmW)
	first, err := pu.Tune(1, sig)
	if err != nil {
		t.Fatal(err)
	}
	second, err := pu.Tune(2, 4*sig)
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	go func() { errs <- d.sdc.HandlePUUpdate(first) }()
	select {
	case <-firstIn:
	case err := <-errs:
		t.Fatalf("first update returned before its journal call: %v", err)
	}
	go func() { errs <- d.sdc.HandlePUUpdate(second) }()
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	recs := journal.records()
	if len(recs) != 2 {
		t.Fatalf("journal holds %d records, want 2", len(recs))
	}
	restored, err := RestoreSDC("sdc-test", d.params, nil, d.stp, nil, recs)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	d.assertSameState(t, d.sdc, restored)
}

// TestConcurrentFirstUpdatesOneLocation: two first updates from one PU id
// claim blocks in different slot groups, whose update locks do not exclude
// each other, and compute their columns at the same time. A PU's location
// is checked where its update installs, so exactly one is accepted, the
// SDC holds one PU, and the budgets decrypt to the plaintext oracle's with
// only the accepted update applied.
func TestConcurrentFirstUpdatesOneLocation(t *testing.T) {
	d := newDurableDeployment(t)
	hr := &hookReader{}
	sdc, err := NewSDC("sdc-test", d.params, nil, d.stp, WithRandom(hr))
	if err != nil {
		t.Fatal(err)
	}
	defer sdc.Close()
	oracle, err := watch.NewSystem(d.params.Watch, nil)
	if err != nil {
		t.Fatal(err)
	}
	k := sdc.codec.Slots()
	blocks := []geo.BlockID{1, geo.BlockID(3*k + 1)}
	sig := d.params.Watch.Quantize(d.params.Watch.SMinPUmW)
	updates := make([]*PUUpdate, len(blocks))
	for i, b := range blocks {
		col, err := sdc.EColumn(b)
		if err != nil {
			t.Fatal(err)
		}
		pu, err := NewPU(rand.Reader, "tv-1", b, col, d.stp.GroupKey(), d.params)
		if err != nil {
			t.Fatal(err)
		}
		if updates[i], err = pu.Tune(i+1, sig); err != nil {
			t.Fatal(err)
		}
	}

	// The trap fires in the first update's column computation and holds
	// it while the second update starts and reaches its own computation.
	errs := make([]error, len(updates))
	var wg sync.WaitGroup
	hr.onRead = func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[1] = sdc.HandlePUUpdate(updates[1])
		}()
		time.Sleep(50 * time.Millisecond)
	}
	hr.armed.Store(true)
	errs[0] = sdc.HandlePUUpdate(updates[0])
	wg.Wait()

	accepted := -1
	for i, err := range errs {
		switch {
		case err == nil && accepted < 0:
			accepted = i
		case err == nil:
			t.Fatal("both first updates of one PU accepted")
		case !strings.Contains(err.Error(), "locations are fixed"):
			t.Fatalf("update %d: err = %v, want the fixed-location refusal", i, err)
		}
	}
	if accepted < 0 {
		t.Fatalf("neither first update accepted: %v", errs)
	}
	if sum := sdc.Summary(); sum.PUs != 1 {
		t.Fatalf("summary %+v, want 1 PU", sum)
	}
	err = oracle.UpdatePU("tv-1", watch.Registration{Block: blocks[accepted], Channel: accepted + 1, SignalUnits: sig})
	if err != nil {
		t.Fatal(err)
	}
	if !d.budgets(t, sdc).Equal(oracle.BudgetMatrix()) {
		t.Fatalf("budgets differ from the oracle with only the update at block %d applied", blocks[accepted])
	}
}
