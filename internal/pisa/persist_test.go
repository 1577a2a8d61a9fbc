package pisa

import (
	"bytes"
	"crypto/rand"
	"encoding/gob"
	"fmt"
	"math/big"
	"strings"
	"testing"

	"pisa/internal/geo"
	"pisa/internal/matrix"
	"pisa/internal/paillier"
	"pisa/internal/store"
	"pisa/internal/watch"
)

// durableDeployment is a deployment whose STP key is kept so tests can
// decrypt the budget matrix and compare restored state in plaintext.
type durableDeployment struct {
	*deployment
	sk *paillier.PrivateKey
}

func newDurableDeployment(t *testing.T) *durableDeployment {
	t.Helper()
	wp := testWatchParams(t)
	params := TestParams(wp)
	sk, err := paillier.GenerateKey(rand.Reader, params.PaillierBits)
	if err != nil {
		t.Fatalf("GenerateKey: %v", err)
	}
	stp := NewSTPWithKey(rand.Reader, sk)
	sdc, err := NewSDC("sdc-test", params, nil, stp)
	if err != nil {
		t.Fatalf("NewSDC: %v", err)
	}
	return &durableDeployment{deployment: &deployment{params: params, stp: stp, sdc: sdc}, sk: sk}
}

// budgets decrypts an SDC's budget matrix with the group secret key.
func (d *durableDeployment) budgets(t *testing.T, s *SDC) *matrix.Int {
	t.Helper()
	m, err := matrix.DecryptPacked(d.sk, s.PackedBudgetSnapshot())
	if err != nil {
		t.Fatalf("DecryptPacked budgets: %v", err)
	}
	return m
}

// legacyBudgets stands in for the removed one-cell-per-ciphertext budget
// matrix inside a hand-built old snapshot: a gob-encoded blob under a
// field name this build no longer has.
type legacyBudgets struct{}

func (legacyBudgets) GobEncode() ([]byte, error) { return []byte("one ciphertext per cell"), nil }
func (*legacyBudgets) GobDecode([]byte) error    { return nil }

// assertSameState checks a restored SDC against a reference: identical
// public E columns and identical decrypted budgets in every block.
func (d *durableDeployment) assertSameState(t *testing.T, ref, restored *SDC) {
	t.Helper()
	for b := 0; b < d.params.Watch.Grid.Blocks(); b++ {
		want, err := ref.EColumn(geo.BlockID(b))
		if err != nil {
			t.Fatalf("ref EColumn(%d): %v", b, err)
		}
		got, err := restored.EColumn(geo.BlockID(b))
		if err != nil {
			t.Fatalf("restored EColumn(%d): %v", b, err)
		}
		if len(want) != len(got) {
			t.Fatalf("EColumn(%d) length %d vs %d", b, len(got), len(want))
		}
		for c := range want {
			if want[c] != got[c] {
				t.Fatalf("EColumn(%d)[%d] = %d, want %d", b, c, got[c], want[c])
			}
		}
	}
	if !d.budgets(t, ref).Equal(d.budgets(t, restored)) {
		t.Fatal("restored budget matrix decrypts differently from reference")
	}
}

func (d *durableDeployment) update(t *testing.T, pu *PU, channel int, signal int64) *PUUpdate {
	t.Helper()
	u, err := pu.Tune(channel, signal)
	if err != nil {
		t.Fatalf("Tune: %v", err)
	}
	if err := d.sdc.HandlePUUpdate(u); err != nil {
		t.Fatalf("HandlePUUpdate: %v", err)
	}
	return u
}

func TestExportRestoreRoundTrip(t *testing.T) {
	d := newDurableDeployment(t)
	sig := d.params.Watch.Quantize(d.params.Watch.SMinPUmW)
	d.update(t, d.newPU(t, "tv-1", 8), 1, sig)
	d.update(t, d.newPU(t, "tv-2", 3), 0, 4*sig)

	snap, err := d.sdc.ExportState()
	if err != nil {
		t.Fatalf("ExportState: %v", err)
	}
	restored, err := RestoreSDC("sdc-test", d.params, nil, d.stp, snap, nil)
	if err != nil {
		t.Fatalf("RestoreSDC: %v", err)
	}
	d.assertSameState(t, d.sdc, restored)

	sum := restored.Summary()
	if sum.PUs != 2 || sum.BlocksWithPUs != 2 {
		t.Fatalf("restored summary %+v, want 2 PUs in 2 blocks", sum)
	}

	// The restored controller must serve live traffic: same decision
	// for the same request, and accept fresh updates.
	su := d.newSU(t, "su-1", 7)
	eirp := map[int]int64{1: maxEIRP(d.deployment)}
	req, err := su.PrepareRequest(eirp, geo.Disclosure{})
	if err != nil {
		t.Fatal(err)
	}
	want := d.decide(t, su, req)
	resp, err := restored.ProcessRequest(req)
	if err != nil {
		t.Fatalf("restored ProcessRequest: %v", err)
	}
	got, err := su.OpenResponse(resp, req, restored.VerifyKey())
	if err != nil {
		t.Fatalf("OpenResponse: %v", err)
	}
	if got.Granted != want.Granted {
		t.Fatalf("restored decision %v, reference %v", got.Granted, want.Granted)
	}
}

// TestRestoreResumesSerial: a full-window SDC's router owns the license
// serial and the SDC snapshot carries it, so a restored monolith issues
// the serial after the last one it issued before the snapshot. A
// restored windowed shard issues none and still refuses SU requests.
func TestRestoreResumesSerial(t *testing.T) {
	d := newDurableDeployment(t)
	su := d.newSU(t, "su-1", 7)
	issue := func(s *SDC) uint64 {
		t.Helper()
		req, err := su.PrepareRequest(map[int]int64{0: 100}, geo.Disclosure{})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := s.ProcessRequest(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp.License.Serial
	}
	for i := 0; i < 3; i++ {
		issue(d.sdc)
	}
	snap, err := d.sdc.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreSDC("sdc-test", d.params, nil, d.stp, snap, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if got := issue(restored); got != 4 {
		t.Fatalf("first license after the restore has serial %d, want 4", got)
	}

	shard, err := NewSDC("shard", d.params, nil, d.stp, WithChannelWindow(0, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer shard.Close()
	if snap, err = shard.ExportState(); err != nil {
		t.Fatal(err)
	}
	restoredShard, err := RestoreSDC("shard", d.params, nil, d.stp, snap, nil, WithChannelWindow(0, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer restoredShard.Close()
	if serial := restoredShard.Summary().Serial; serial != 0 {
		t.Fatalf("restored shard reports serial %d, want 0", serial)
	}
	req, err := su.PrepareRequest(map[int]int64{0: 100}, geo.Disclosure{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := restoredShard.ProcessRequest(req); err == nil || !strings.Contains(err.Error(), "shard router") {
		t.Fatalf("restored shard's ProcessRequest error = %v, want the shard-router refusal", err)
	}
}

func TestRestoreFreshWithoutSnapshot(t *testing.T) {
	d := newDurableDeployment(t)
	restored, err := RestoreSDC("sdc-test", d.params, nil, d.stp, nil, nil)
	if err != nil {
		t.Fatalf("RestoreSDC(nil, nil): %v", err)
	}
	d.assertSameState(t, d.sdc, restored)
}

func TestRestoreReplaysWALTail(t *testing.T) {
	d := newDurableDeployment(t)
	sig := d.params.Watch.Quantize(d.params.Watch.SMinPUmW)
	d.update(t, d.newPU(t, "tv-1", 8), 1, sig)

	snap, err := d.sdc.ExportState()
	if err != nil {
		t.Fatal(err)
	}

	// Updates after the snapshot: a new PU, then a retune of the PU
	// already covered by the snapshot — replay must supersede it.
	pu1 := d.newPU(t, "tv-2", 3)
	u1 := d.update(t, pu1, 0, 4*sig)
	pu2 := d.newPU(t, "tv-3", 8)
	u2 := d.update(t, pu2, 2, 2*sig)
	u3 := d.update(t, pu1, 1, 8*sig)

	var tail []store.Record
	for i, u := range []*PUUpdate{u1, u2, u3} {
		payload, err := EncodePUUpdate(u)
		if err != nil {
			t.Fatal(err)
		}
		tail = append(tail, store.Record{Index: uint64(i + 1), Type: RecordPUUpdate, Payload: payload})
	}

	restored, err := RestoreSDC("sdc-test", d.params, nil, d.stp, snap, tail)
	if err != nil {
		t.Fatalf("RestoreSDC with tail: %v", err)
	}
	d.assertSameState(t, d.sdc, restored)
	if sum := restored.Summary(); sum.PUs != 3 {
		t.Fatalf("restored summary %+v, want 3 PUs", sum)
	}
}

// TestRestoreRecomputesOnlyTailGroups: a restore trusts the snapshot's
// budget matrix. With an empty tail it draws no nonce and computes no
// column; a tail of two records in one slot group computes that group's
// column once, one nonce per channel. Both equal the live state.
func TestRestoreRecomputesOnlyTailGroups(t *testing.T) {
	d := newDurableDeployment(t)
	journal := &recordingJournal{}
	d.sdc.SetUpdateJournal(journal.append)
	sig := d.params.Watch.Quantize(d.params.Watch.SMinPUmW)
	k := d.sdc.codec.Slots()
	var pus []*PU
	for g := 0; g < 4; g++ {
		pu := d.newPU(t, watch.PUID(fmt.Sprintf("tv-%d", g)), geo.BlockID(g*k))
		d.update(t, pu, g%d.params.Watch.Channels, sig)
		pus = append(pus, pu)
	}
	snap, err := d.sdc.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	logged := len(journal.records())
	restore := func(what string, tail []store.Record, wantColumns int) {
		t.Helper()
		nonces, columns := paillier.Nonces(), metrics().colRebuildOK.Count()
		restored, err := RestoreSDC("sdc-test", d.params, nil, d.stp, snap, tail)
		if err != nil {
			t.Fatalf("%s: RestoreSDC: %v", what, err)
		}
		defer restored.Close()
		gotNonces, gotColumns := paillier.Nonces()-nonces, metrics().colRebuildOK.Count()-columns
		if gotColumns != uint64(wantColumns) || gotNonces != uint64(wantColumns*d.params.Watch.Channels) {
			t.Fatalf("%s: %d columns computed and %d nonces drawn, want %d and %d",
				what, gotColumns, gotNonces, wantColumns, wantColumns*d.params.Watch.Channels)
		}
		d.assertSameState(t, d.sdc, restored)
	}
	restore("empty tail", nil, 0)

	// A retune in group 2 and a new PU beside it.
	d.update(t, pus[2], 1, 4*sig)
	d.update(t, d.newPU(t, "tv-new", geo.BlockID(2*k+1)), 2, sig)
	restore("tail in one group", journal.records()[logged:], 1)
}

func TestRestoreRejectsBadInputs(t *testing.T) {
	d := newDurableDeployment(t)
	snap, err := d.sdc.ExportState()
	if err != nil {
		t.Fatal(err)
	}

	t.Run("garbage snapshot", func(t *testing.T) {
		if _, err := RestoreSDC("sdc-test", d.params, nil, d.stp, []byte("not a snapshot"), nil); err == nil {
			t.Fatal("garbage snapshot accepted")
		}
	})
	// State written before packing existed, or under -packing=false: a
	// version-1 snapshot with the budgets under a field that is gone.
	t.Run("unpacked snapshot", func(t *testing.T) {
		var old bytes.Buffer
		err := gob.NewEncoder(&old).Encode(struct {
			Version int
			Serial  uint64
			NEnc    *legacyBudgets
		}{Version: 1, Serial: 3, NEnc: &legacyBudgets{}})
		if err != nil {
			t.Fatal(err)
		}
		_, err = RestoreSDC("sdc-test", d.params, nil, d.stp, old.Bytes(), nil)
		if err == nil || !strings.Contains(err.Error(), "version 1") {
			t.Fatalf("unpacked snapshot: err = %v, want a refusal of version 1", err)
		}
	})
	// reversioned re-encodes this build's snapshot under another version,
	// or without its budget matrix.
	reversioned := func(t *testing.T, version int, npack *matrix.Packed) []byte {
		t.Helper()
		var st sdcState
		if err := gob.NewDecoder(bytes.NewReader(snap)).Decode(&st); err != nil {
			t.Fatal(err)
		}
		st.Version, st.NPack = version, npack
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// A version-2 SDC could export an update before its column folded it.
	t.Run("version 2 snapshot", func(t *testing.T) {
		old := reversioned(t, 2, d.sdc.PackedBudgetSnapshot())
		_, err := RestoreSDC("sdc-test", d.params, nil, d.stp, old, nil)
		if err == nil || !strings.Contains(err.Error(), "version 2") || !strings.Contains(err.Error(), "let the PUs re-send") {
			t.Fatalf("err = %v, want a refusal of version 2 telling the PUs to re-send", err)
		}
	})
	// A version-3 SDC nested each PU update in a gob encoding of its own,
	// in the snapshot and in the log.
	nested := func(t *testing.T) gobEncoded {
		t.Helper()
		u, err := d.newPU(t, "tv-nested", 8).Tune(1, d.params.Watch.Quantize(d.params.Watch.SMinPUmW))
		if err != nil {
			t.Fatal(err)
		}
		inner, err := EncodePUUpdate(u)
		if err != nil {
			t.Fatal(err)
		}
		return inner
	}
	t.Run("version 3 snapshot", func(t *testing.T) {
		var old bytes.Buffer
		err := gob.NewEncoder(&old).Encode(struct {
			Version int
			Serial  uint64
			NPack   *matrix.Packed
			Updates []gobEncoded
		}{Version: 3, NPack: d.sdc.PackedBudgetSnapshot(), Updates: []gobEncoded{nested(t)}})
		if err != nil {
			t.Fatal(err)
		}
		_, err = RestoreSDC("sdc-test", d.params, nil, d.stp, old.Bytes(), nil)
		if err == nil || !strings.Contains(err.Error(), "version 3") || !strings.Contains(err.Error(), "let the PUs re-send") {
			t.Fatalf("err = %v, want a refusal of version 3 telling the PUs to re-send", err)
		}
	})
	t.Run("nested WAL record", func(t *testing.T) {
		var payload bytes.Buffer
		if err := gob.NewEncoder(&payload).Encode(nested(t)); err != nil {
			t.Fatal(err)
		}
		tail := []store.Record{{Index: 9, Type: RecordPUUpdate, Payload: payload.Bytes()}}
		_, err := RestoreSDC("sdc-test", d.params, nil, d.stp, snap, tail)
		if err == nil || !strings.Contains(err.Error(), "record 9") || !strings.Contains(err.Error(), "nested each PU update") {
			t.Fatalf("err = %v, want a refusal of record 9 naming the nested encoding", err)
		}
	})
	t.Run("no budget matrix", func(t *testing.T) {
		_, err := RestoreSDC("sdc-test", d.params, nil, d.stp, reversioned(t, sdcStateVersion, nil), nil)
		if err == nil || !strings.Contains(err.Error(), "no budget matrix") {
			t.Fatalf("err = %v, want a refusal naming the missing budget matrix", err)
		}
	})
	t.Run("foreign group key", func(t *testing.T) {
		other, err := NewSTP(rand.Reader, d.params.PaillierBits)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RestoreSDC("sdc-test", d.params, nil, other, snap, nil); err == nil {
			t.Fatal("snapshot under a different group key accepted")
		}
	})
	t.Run("wrong record type", func(t *testing.T) {
		tail := []store.Record{{Index: 1, Type: RecordSURegistration, Payload: []byte("x")}}
		if _, err := RestoreSDC("sdc-test", d.params, nil, d.stp, snap, tail); err == nil {
			t.Fatal("SU-registration record in SDC WAL accepted")
		}
	})
	t.Run("corrupt tail record", func(t *testing.T) {
		tail := []store.Record{{Index: 1, Type: RecordPUUpdate, Payload: []byte("torn")}}
		if _, err := RestoreSDC("sdc-test", d.params, nil, d.stp, snap, tail); err == nil {
			t.Fatal("undecodable WAL record accepted")
		}
	})
}

// gobEncoded is a value that travels through a GobEncode method of its
// own: gob carries it as opaque bytes, as it carried every PU update of
// a version-3 SDC.
type gobEncoded []byte

func (g gobEncoded) GobEncode() ([]byte, error) { return g, nil }

func TestPUUpdateCodecRoundTrip(t *testing.T) {
	d := newDurableDeployment(t)
	pu := d.newPU(t, "tv-1", 8)
	u, err := pu.Tune(1, d.params.Watch.Quantize(d.params.Watch.SMinPUmW))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := EncodePUUpdate(u)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodePUUpdate(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.PUID != u.PUID || got.Block != u.Block || len(got.Cts) != len(u.Cts) {
		t.Fatalf("round trip mismatch: %v/%v/%d vs %v/%v/%d",
			got.PUID, got.Block, len(got.Cts), u.PUID, u.Block, len(u.Cts))
	}
	for i := range u.Cts {
		if got.Cts[i].C.Cmp(u.Cts[i].C) != 0 {
			t.Fatalf("ciphertext %d differs after round trip", i)
		}
	}
	if _, err := EncodePUUpdate(nil); err == nil {
		t.Fatal("nil update encoded")
	}
}

func TestRegistryExportRestore(t *testing.T) {
	d := newDurableDeployment(t)
	su1 := d.newSU(t, "su-1", 7)
	su2 := d.newSU(t, "su-2", 2)

	snap, err := d.stp.ExportRegistry()
	if err != nil {
		t.Fatalf("ExportRegistry: %v", err)
	}

	// A registration arriving after the snapshot rides in the WAL tail.
	su3, err := NewSU(rand.Reader, "su-3", 4, d.params, d.sdc.Planner(), d.stp.GroupKey())
	if err != nil {
		t.Fatal(err)
	}
	payload, err := EncodeSURegistration("su-3", su3.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	tail := []store.Record{{Index: 1, Type: RecordSURegistration, Payload: payload}}

	fresh := NewSTPWithKey(rand.Reader, d.sk)
	if err := fresh.RestoreRegistry(snap, tail); err != nil {
		t.Fatalf("RestoreRegistry: %v", err)
	}
	if got := fresh.RegisteredSUs(); got != 3 {
		t.Fatalf("restored registry has %d SUs, want 3", got)
	}
	for id, want := range map[string]*paillier.PublicKey{
		"su-1": su1.PublicKey(), "su-2": su2.PublicKey(), "su-3": su3.PublicKey(),
	} {
		pk, err := fresh.SUKey(id)
		if err != nil {
			t.Fatalf("SUKey(%s): %v", id, err)
		}
		if !pk.SameKey(want) {
			t.Fatalf("SUKey(%s) differs after restore (modulus or nonce base)", id)
		}
	}

	// A snapshot and a WAL record from before keys carried a nonce base,
	// and a snapshot entry whose base is zero, are refused by name: a key
	// without H draws no nonce.
	t.Run("pre-H snapshot and tail", func(t *testing.T) {
		encode := func(v any) []byte {
			var b bytes.Buffer
			if err := gob.NewEncoder(&b).Encode(v); err != nil {
				t.Fatal(err)
			}
			return b.Bytes()
		}
		n1, n2 := su1.PublicKey().N, su2.PublicKey().N
		for name, c := range map[string]struct {
			snapshot []byte
			tail     []store.Record
			want     string
		}{
			"snapshot without bases": {
				snapshot: encode(&stpRegistryV1{Version: stpRegistryVersion, IDs: []string{"su-1"}, Moduli: []*big.Int{n1}}),
				want:     "nonce bases",
			},
			"snapshot with a zero base": {
				snapshot: encode(&stpRegistryV1{Version: stpRegistryVersion, IDs: []string{"su-1", "su-2"},
					Moduli: []*big.Int{n1, n2}, Bases: []*big.Int{su1.PublicKey().H, new(big.Int)}}),
				want: "no nonce base",
			},
			"WAL record without a base": {
				tail: []store.Record{{Index: 1, Type: RecordSURegistration,
					Payload: encode(&suRegistrationV1{ID: "su-2", Modulus: n2})}},
				want: "no nonce base",
			},
		} {
			s := NewSTPWithKey(rand.Reader, d.sk)
			err := s.RestoreRegistry(c.snapshot, c.tail)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: %v, want a refusal naming %q", name, err, c.want)
			}
			if got := s.RegisteredSUs(); got != 0 {
				t.Errorf("%s: a refused registry left %d SUs", name, got)
			}
		}
	})

	// A snapshot that names one SU twice is refused, whichever key each
	// entry carries: a WAL tail or a live registration that re-registers
	// an SU with another key is refused too.
	t.Run("duplicate id in snapshot", func(t *testing.T) {
		for name, second := range map[string]*paillier.PublicKey{"other key": su2.PublicKey(), "same key": su1.PublicKey()} {
			var b bytes.Buffer
			reg := stpRegistryV1{Version: stpRegistryVersion, IDs: []string{"su-1", "su-1"},
				Moduli: []*big.Int{su1.PublicKey().N, second.N}, Bases: []*big.Int{su1.PublicKey().H, second.H}}
			if err := gob.NewEncoder(&b).Encode(&reg); err != nil {
				t.Fatal(err)
			}
			s := NewSTPWithKey(rand.Reader, d.sk)
			if err := s.RestoreRegistry(b.Bytes(), nil); err == nil || !strings.Contains(err.Error(), `"su-1" twice`) {
				t.Errorf("%s: %v, want a refusal naming su-1 twice", name, err)
			}
		}
	})

	// Recovered keys are stored prepared and build no table until a
	// conversion encrypts under them; the first one does, whatever the
	// boot order was.
	t.Run("restored keys table on first conversion", func(t *testing.T) {
		s := NewSTPWithKey(rand.Reader, d.sk)
		if err := s.RestoreRegistry(snap, tail); err != nil {
			t.Fatal(err)
		}
		for _, id := range []string{"su-1", "su-2", "su-3"} {
			if pk, err := s.SUKey(id); err != nil || pk.NonceTableBytes() != 0 {
				t.Fatalf("restored key %s tabled at restore (err %v)", id, err)
			}
		}
		v, err := s.GroupKey().Encrypt(rand.Reader, big.NewInt(5))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := s.ConvertSigns(&SignRequest{SUID: "su-1", V: []*paillier.Ciphertext{v}, Slots: 1, SlotBits: 64, AnswerBits: 64})
		if err != nil {
			t.Fatal(err)
		}
		if m, err := su1.key.DecryptInt(resp.X[0]); err != nil || m != 1 {
			t.Fatalf("conversion into a restored key: m=%d err=%v, want +1", m, err)
		}
		if pk, _ := s.SUKey("su-1"); pk.NonceTableBytes() == 0 {
			t.Fatal("first conversion left the restored key untabled")
		}
	})

	t.Run("conflicting tail registration", func(t *testing.T) {
		other, err := paillier.GenerateKey(rand.Reader, d.params.PaillierBits)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := EncodeSURegistration("su-1", other.Public())
		if err != nil {
			t.Fatal(err)
		}
		s := NewSTPWithKey(rand.Reader, d.sk)
		err = s.RestoreRegistry(snap, []store.Record{{Index: 1, Type: RecordSURegistration, Payload: payload}})
		if err == nil {
			t.Fatal("tail re-registering su-1 under a new key accepted")
		}
	})
	t.Run("empty restore", func(t *testing.T) {
		s := NewSTPWithKey(rand.Reader, d.sk)
		if err := s.RestoreRegistry(nil, nil); err != nil {
			t.Fatal(err)
		}
		if s.RegisteredSUs() != 0 {
			t.Fatal("empty restore populated the registry")
		}
	})
}

func TestJournalHookReceivesUpdates(t *testing.T) {
	d := newDurableDeployment(t)
	var journaled []*PUUpdate
	d.sdc.SetUpdateJournal(func(u *PUUpdate) error {
		journaled = append(journaled, u)
		return nil
	})
	sig := d.params.Watch.Quantize(d.params.Watch.SMinPUmW)
	u1 := d.update(t, d.newPU(t, "tv-1", 8), 1, sig)
	u2 := d.update(t, d.newPU(t, "tv-2", 3), 0, sig)
	if len(journaled) != 2 || journaled[0] != u1 || journaled[1] != u2 {
		t.Fatalf("journal saw %d updates, want the 2 applied ones", len(journaled))
	}

	var regs []string
	d.stp.SetRegistrationJournal(func(id string, pk *paillier.PublicKey) error {
		regs = append(regs, id)
		return nil
	})
	su := d.newSU(t, "su-1", 7)
	// Idempotent re-registration journals again: replay tolerates the
	// duplicate record, and skipping it would let a retry after a failed
	// append be acknowledged without ever reaching the log.
	if err := d.stp.RegisterSU("su-1", su.PublicKey()); err != nil {
		t.Fatal(err)
	}
	if len(regs) != 2 || regs[0] != "su-1" || regs[1] != "su-1" {
		t.Fatalf("registration journal saw %v, want [su-1 su-1]", regs)
	}
}

// TestSnapshotDuringColumnRebuild exports state from inside the journal
// hook, the window a Keeper snapshot can land in between an update's
// install and its WAL append. The snapshot holds the update and the
// column that folds it, so a restore of it with the WAL record compacted
// away (an empty tail) equals the live state without recomputing a
// column.
func TestSnapshotDuringColumnRebuild(t *testing.T) {
	d := newDurableDeployment(t)
	var snap []byte
	var journaled *PUUpdate
	d.sdc.SetUpdateJournal(func(u *PUUpdate) error {
		var err error
		snap, err = d.sdc.ExportState()
		journaled = u
		return err
	})
	sig := d.params.Watch.Quantize(d.params.Watch.SMinPUmW)
	d.update(t, d.newPU(t, "tv-1", 8), 1, sig)

	var st sdcState
	if err := gob.NewDecoder(bytes.NewReader(snap)).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.PUUpdates) != 1 || st.PUUpdates[0].PUID != journaled.PUID {
		t.Fatalf("snapshot taken in the journal hook holds %d updates, want the one being journaled", len(st.PUUpdates))
	}
	// The restore computes no column, so its budgets are the snapshot's.
	computed := metrics().colRebuildOK.Count()
	restored, err := RestoreSDC("sdc-test", d.params, nil, d.stp, snap, nil)
	if err != nil {
		t.Fatalf("RestoreSDC: %v", err)
	}
	if n := metrics().colRebuildOK.Count() - computed; n != 0 {
		t.Fatalf("a restore with an empty tail computed %d columns, want 0", n)
	}
	d.assertSameState(t, d.sdc, restored)
	if sum := restored.Summary(); sum.PUs != 1 {
		t.Fatalf("restored summary %+v, want 1 PU", sum)
	}
}

// TestUpdateJournalFailureRollsBack: a journal failure must leave no
// trace of the update — the state exported after it is byte-identical to
// the state exported before — and the PU's retry must then land fully.
func TestUpdateJournalFailureRollsBack(t *testing.T) {
	d := newDurableDeployment(t)
	sig := d.params.Watch.Quantize(d.params.Watch.SMinPUmW)
	pu := d.newPU(t, "tv-1", 8)
	export := func() []byte {
		t.Helper()
		snap, err := d.sdc.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	before := export()

	fail := true
	var journaled int
	d.sdc.SetUpdateJournal(func(u *PUUpdate) error {
		if fail {
			return fmt.Errorf("disk full")
		}
		journaled++
		return nil
	})
	u, err := pu.Tune(1, sig)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.sdc.HandlePUUpdate(u); err == nil {
		t.Fatal("update acknowledged despite journal failure")
	}
	if sum := d.sdc.Summary(); sum.PUs != 0 {
		t.Fatalf("summary after rollback %+v, want no PUs", sum)
	}
	if !bytes.Equal(before, export()) {
		t.Fatal("exported state changed by an update that was never journaled")
	}

	// The log heals; the retry must install and journal.
	fail = false
	if err := d.sdc.HandlePUUpdate(u); err != nil {
		t.Fatalf("retry after journal recovery: %v", err)
	}
	if journaled != 1 {
		t.Fatalf("retry journaled %d records, want 1", journaled)
	}
	if sum := d.sdc.Summary(); sum.PUs != 1 {
		t.Fatalf("summary after retry %+v, want 1 PU", sum)
	}

	// A retune whose append fails rolls back to the previous update and
	// its column, not to an empty column.
	afterFirst := export()
	u2, err := pu.Tune(2, 4*sig)
	if err != nil {
		t.Fatal(err)
	}
	fail = true
	if err := d.sdc.HandlePUUpdate(u2); err == nil {
		t.Fatal("retune acknowledged despite journal failure")
	}
	if !bytes.Equal(afterFirst, export()) {
		t.Fatal("exported state does not match the journaled state after a retune rollback")
	}
}

// TestRegistrationJournalFailureRetry: an SU whose first registration
// fails at the WAL keeps retrying until the append succeeds; the retry
// must produce a record even though the key already sits in the map.
func TestRegistrationJournalFailureRetry(t *testing.T) {
	d := newDurableDeployment(t)
	su, err := NewSU(rand.Reader, "su-9", 4, d.params, d.sdc.Planner(), d.stp.GroupKey())
	if err != nil {
		t.Fatal(err)
	}
	fail := true
	var regs int
	d.stp.SetRegistrationJournal(func(id string, pk *paillier.PublicKey) error {
		if fail {
			return fmt.Errorf("disk full")
		}
		regs++
		return nil
	})
	if err := d.stp.RegisterSU("su-9", su.PublicKey()); err == nil {
		t.Fatal("registration acknowledged despite journal failure")
	}
	fail = false
	if err := d.stp.RegisterSU("su-9", su.PublicKey()); err != nil {
		t.Fatalf("retry: %v", err)
	}
	if regs != 1 {
		t.Fatalf("retry journaled %d records, want 1", regs)
	}
}
