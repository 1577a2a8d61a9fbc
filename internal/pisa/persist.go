package pisa

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/big"
	"sort"

	"pisa/internal/geo"
	"pisa/internal/matrix"
	"pisa/internal/paillier"
	"pisa/internal/store"
	"pisa/internal/watch"
)

// WAL record types for the durable deployment (internal/store). The
// SDC's log holds RecordPUUpdate entries; the STP's registry log holds
// RecordSURegistration entries. Values are part of the on-disk format
// — never renumber.
const (
	RecordPUUpdate       store.RecordType = 1
	RecordSURegistration store.RecordType = 2
)

// sdcState is the serialised form of the SDC's complete mutable
// protocol state: the encrypted budget matrix N~, every PU's latest
// submitted column (from which the PU location registry is derived),
// and the serial counter of the instance's one-shard router (0 on a
// windowed shard, which has none). Everything else the
// SDC holds — the public E matrix, protection distances, the decision
// cache — is recomputed from public data or on demand.
//
// Version 4 stores PU updates as plain gob structs, so the snapshot's
// NPack folds exactly its PUUpdates. Version 3 held the same state with
// each update in an encoding of its own, under the field name Updates,
// which this build ignores. Version 2's NPack could lag its updates (a
// column still being rebuilt), and version 1 stored updates the SDC
// shifted into their slot itself (and, before packing, unpacked
// budgets). RestoreSDC refuses every version but this build's with one
// message: the PUs re-send what an older snapshot held.
type sdcState struct {
	Version   int
	Serial    uint64
	NPack     *matrix.Packed
	PUUpdates []*PUUpdate
}

const sdcStateVersion = 4

// ExportState serialises the SDC's mutable protocol state for a
// snapshot. The encrypted entries are immutable, so only the brief
// pointer copy runs under the state lock; the expensive gob encoding
// overlaps with live updates and requests. Call it after the last
// acknowledged append when pairing with store.SaveSnapshot.
func (s *SDC) ExportState() ([]byte, error) {
	s.mu.Lock()
	st := sdcState{
		Version:   sdcStateVersion,
		Serial:    s.licenser().Serial(),
		NPack:     s.nPack.Clone(),
		PUUpdates: make([]*PUUpdate, 0, len(s.puUpdates)),
	}
	for _, u := range s.puUpdates {
		st.PUUpdates = append(st.PUUpdates, u)
	}
	s.mu.Unlock()
	sort.Slice(st.PUUpdates, func(i, j int) bool { return st.PUUpdates[i].PUID < st.PUUpdates[j].PUID })
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
		return nil, fmt.Errorf("pisa: export SDC state: %w", err)
	}
	return buf.Bytes(), nil
}

// RestoreSDC rebuilds a controller from durable state: the snapshot
// payload (nil for a first boot) plus the WAL tail of updates accepted
// after the snapshot was taken. A live update installs its column with
// it, so the snapshot's budget matrix is trusted as it is. Replay
// registers the tail's updates and then computes the column of each slot
// group the tail touches once, as a live update does — one computation
// per touched group, not one per record, and none for an empty tail. The
// STP must serve the same group key the snapshot was encrypted under;
// a key mismatch is detected and refused, because foreign-key
// ciphertexts would silently decrypt to garbage.
//
// The license signing key is generated fresh on every boot — licenses
// are short-lived and SUs fetch the verification key per session — so
// restored responses are re-signed but decision-identical. Its primes
// come from the Paillier keys' sieved search (dsig.NewSigner): an
// empty-tail restore at paper scale (100 channels, 600 blocks, 2048-bit
// keys) takes about 0.1 s on 2 vCPUs, key included. A full-window
// instance's router resumes the snapshot's license serial; a router over
// windowed shards keeps no snapshot and starts at 0 (DESIGN.md §15).
func RestoreSDC(issuer string, params Params, transmitters []watch.TVTransmitter, stp STPService, snapshot []byte, tail []store.Record, opts ...SDCOption) (*SDC, error) {
	s, err := newSDCBase(issuer, params, transmitters, stp, opts)
	if err != nil {
		return nil, err
	}
	if snapshot == nil {
		if err := s.encryptInitialBudgets(); err != nil {
			return nil, err
		}
	} else {
		var st sdcState
		if err := gob.NewDecoder(bytes.NewReader(snapshot)).Decode(&st); err != nil {
			return nil, fmt.Errorf("pisa: decode SDC snapshot: %w", err)
		}
		if st.Version != sdcStateVersion {
			return nil, fmt.Errorf("pisa: SDC snapshot version %d, this build reads version %d only; boot without the snapshot and its log and let the PUs re-send", st.Version, sdcStateVersion)
		}
		if st.NPack == nil {
			return nil, fmt.Errorf("pisa: SDC snapshot has no budget matrix")
		}
		if st.NPack.Channels() != params.Watch.Channels || st.NPack.Blocks() != params.Watch.Grid.Blocks() {
			return nil, fmt.Errorf("pisa: snapshot budgets are %dx%d, deployment is %dx%d",
				st.NPack.Channels(), st.NPack.Blocks(), params.Watch.Channels, params.Watch.Grid.Blocks())
		}
		if !st.NPack.Codec().Equal(s.codec) {
			return nil, fmt.Errorf("pisa: snapshot slot codec does not match the deployment parameters")
		}
		if !st.NPack.Key().Equal(s.group) {
			return nil, fmt.Errorf("pisa: snapshot encrypted under a different group key than the STP serves")
		}
		s.nPack = st.NPack
		if lic := s.licenser(); lic != nil {
			lic.serial.Store(st.Serial)
		}
		for _, u := range st.PUUpdates {
			if err := s.registerRestored(u); err != nil {
				return nil, fmt.Errorf("pisa: snapshot update: %w", err)
			}
		}
	}
	// Replay the WAL tail in append order; later records for the same
	// PU supersede earlier ones exactly as live handling would.
	touched := make([]bool, len(s.updateMu))
	for _, rec := range tail {
		if rec.Type != RecordPUUpdate {
			return nil, fmt.Errorf("pisa: SDC WAL record %d has unexpected type %d", rec.Index, rec.Type)
		}
		u, err := DecodePUUpdate(rec.Payload)
		if err != nil {
			// The log checks every record's CRC, so a record that does not
			// decode was almost certainly written in the older encoding.
			return nil, fmt.Errorf("pisa: SDC WAL record %d: %w: a build that nested each PU update in a gob encoding of its own most likely wrote it; boot without the snapshot and its log and let the PUs re-send", rec.Index, err)
		}
		if err := s.registerRestored(u); err != nil {
			return nil, fmt.Errorf("pisa: SDC WAL record %d: %w", rec.Index, err)
		}
		touched[int(u.Block)/s.codec.Slots()] = true
	}
	for g, t := range touched {
		if !t {
			continue
		}
		col, err := s.groupColumn(g, s.groupUpdatesLocked(g, ""))
		if err == nil {
			_, err = s.swapGroupLocked(g, col)
		}
		if err != nil {
			return nil, fmt.Errorf("pisa: replay slot group %d: %w", g, err)
		}
	}
	return s, nil
}

// registerRestored validates and registers one recovered update
// without journaling it or computing its column (recovery computes each
// touched group's column once, after the whole tail).
func (s *SDC) registerRestored(u *PUUpdate) error {
	if err := s.validateUpdate(u); err != nil {
		return err
	}
	if prev, ok := s.puUpdates[u.PUID]; ok && prev.Block != u.Block {
		return fmt.Errorf("pisa: restored PU %q moves from block %d to %d", u.PUID, prev.Block, u.Block)
	}
	s.puUpdates[u.PUID] = u
	return nil
}

// EncodePUUpdate serialises one update for a WAL record.
func EncodePUUpdate(u *PUUpdate) ([]byte, error) {
	if u == nil {
		return nil, fmt.Errorf("pisa: nil PU update")
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(u); err != nil {
		return nil, fmt.Errorf("pisa: encode PU update: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodePUUpdate reverses EncodePUUpdate. Structural validation
// (channel count, nil ciphertexts, block bounds) happens when the
// update is applied, where the deployment parameters are known.
func DecodePUUpdate(data []byte) (*PUUpdate, error) {
	var u PUUpdate
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&u); err != nil {
		return nil, fmt.Errorf("pisa: decode PU update: %w", err)
	}
	return &u, nil
}

// SDCSummary is the operator-facing digest of the mutable SDC state,
// logged at shutdown and after recovery.
type SDCSummary struct {
	// PUs counts registered primary users (stored update columns).
	PUs int
	// BlocksWithPUs counts grid blocks with at least one PU.
	BlocksWithPUs int
	// PopulatedCells counts non-nil budget matrix entries.
	PopulatedCells int
	// Serial is the last issued license serial; always 0 on a windowed
	// shard, which issues none.
	Serial uint64
}

// Summary snapshots the counters.
func (s *SDC) Summary() SDCSummary {
	s.mu.Lock()
	defer s.mu.Unlock()
	blocks := make(map[geo.BlockID]bool, len(s.puUpdates))
	for _, u := range s.puUpdates {
		blocks[u.Block] = true
	}
	return SDCSummary{
		PUs:            len(s.puUpdates),
		BlocksWithPUs:  len(blocks),
		PopulatedCells: s.nPack.Populated(),
		Serial:         s.licenser().Serial(),
	}
}

// PackedBudgetSnapshot returns a point-in-time copy of the encrypted
// budget matrix N~ (sharing the immutable ciphertexts). The entries are
// ciphertexts under the group key, so handing them out reveals nothing
// the SDC itself could not already see; tests use this to check a
// restored controller decrypts to the same plaintext budgets.
func (s *SDC) PackedBudgetSnapshot() *matrix.Packed {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nPack.Clone()
}

// stpRegistryV1 is the serialised SU key registry (snapshot payload
// for the STP's store). Only public key material is persisted — the
// group secret key lives in its own restricted file (see cmd/stpd).
// Bases holds each key's nonce base H, parallel to Moduli, with zero
// standing for a key that has none (gob cannot carry a nil element); a
// snapshot written before the field existed decodes with Bases empty.
type stpRegistryV1 struct {
	Version int
	IDs     []string
	Moduli  []*big.Int
	Bases   []*big.Int
}

const stpRegistryVersion = 1

// ExportRegistry serialises the SU key registry for a snapshot.
func (s *STP) ExportRegistry() ([]byte, error) {
	keys := s.sus.snapshot()
	reg := stpRegistryV1{Version: stpRegistryVersion}
	for id := range keys {
		reg.IDs = append(reg.IDs, id)
	}
	sort.Strings(reg.IDs)
	for _, id := range reg.IDs {
		h := keys[id].H
		if h == nil {
			h = new(big.Int)
		}
		reg.Moduli = append(reg.Moduli, keys[id].N)
		reg.Bases = append(reg.Bases, h)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&reg); err != nil {
		return nil, fmt.Errorf("pisa: export SU registry: %w", err)
	}
	return buf.Bytes(), nil
}

// RestoreRegistry rebuilds the SU key registry from durable state: the
// registry snapshot (nil for a first boot) plus the WAL tail of
// registrations accepted after it. Call before serving and before
// arming SetRegistrationJournal.
func (s *STP) RestoreRegistry(snapshot []byte, tail []store.Record) error {
	keys := make(map[string]*paillier.PublicKey)
	if snapshot != nil {
		var reg stpRegistryV1
		if err := gob.NewDecoder(bytes.NewReader(snapshot)).Decode(&reg); err != nil {
			return fmt.Errorf("pisa: decode SU registry snapshot: %w", err)
		}
		if reg.Version != stpRegistryVersion {
			return fmt.Errorf("pisa: SU registry snapshot version %d, this build reads %d", reg.Version, stpRegistryVersion)
		}
		if len(reg.IDs) != len(reg.Moduli) || (len(reg.Bases) != 0 && len(reg.Bases) != len(reg.IDs)) {
			return fmt.Errorf("pisa: SU registry snapshot has %d ids but %d moduli and %d bases",
				len(reg.IDs), len(reg.Moduli), len(reg.Bases))
		}
		for i, id := range reg.IDs {
			if id == "" {
				return fmt.Errorf("pisa: SU registry snapshot entry %d malformed", i)
			}
			pk := &paillier.PublicKey{N: reg.Moduli[i]}
			if len(reg.Bases) != 0 && reg.Bases[i].Sign() != 0 {
				pk.H = reg.Bases[i]
			}
			keys[id] = pk
		}
	}
	for _, rec := range tail {
		if rec.Type != RecordSURegistration {
			return fmt.Errorf("pisa: STP WAL record %d has unexpected type %d", rec.Index, rec.Type)
		}
		id, pk, err := DecodeSURegistration(rec.Payload)
		if err != nil {
			return fmt.Errorf("pisa: STP WAL record %d: %w", rec.Index, err)
		}
		if existing, ok := keys[id]; ok && !existing.SameKey(pk) {
			return fmt.Errorf("pisa: STP WAL record %d re-registers SU %q with a different key", rec.Index, id)
		}
		keys[id] = pk
	}
	// Through the same door as live registrations: the recovered keys
	// arrive bare (modulus and nonce base only), are checked like any
	// other outside input and stored prepared. Each tables its nonce base
	// on the first conversion into it, not here.
	for id, pk := range keys {
		if err := s.sus.register(id, pk); err != nil {
			return err
		}
	}
	return nil
}

// suRegistrationV1 is one WAL record of the STP registry log. Base is
// the key's nonce base H, absent on a key without one and in records
// written before the field existed.
type suRegistrationV1 struct {
	ID      string
	Modulus *big.Int
	Base    *big.Int
}

// EncodeSURegistration serialises one SU key registration.
func EncodeSURegistration(id string, pk *paillier.PublicKey) ([]byte, error) {
	if id == "" || pk == nil || pk.N == nil {
		return nil, fmt.Errorf("pisa: incomplete SU registration")
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&suRegistrationV1{ID: id, Modulus: pk.N, Base: pk.H}); err != nil {
		return nil, fmt.Errorf("pisa: encode SU registration: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeSURegistration reverses EncodeSURegistration.
func DecodeSURegistration(data []byte) (string, *paillier.PublicKey, error) {
	var reg suRegistrationV1
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&reg); err != nil {
		return "", nil, fmt.Errorf("pisa: decode SU registration: %w", err)
	}
	if reg.ID == "" {
		return "", nil, fmt.Errorf("pisa: decoded SU registration malformed")
	}
	pk := &paillier.PublicKey{N: reg.Modulus, H: reg.Base}
	if err := checkWireKey("decoded SU registration", pk); err != nil {
		return "", nil, err
	}
	return reg.ID, pk, nil
}

// RegisteredSUs reports the registry size, for shutdown summaries.
func (s *STP) RegisteredSUs() int { return s.sus.len() }
