// Package pir implements the multi-server information-theoretic PIR
// spectrum-query backend: the alternative point in the CRN
// location-privacy design space explored by Grissa, Yavuz & Hamdaoui
// ("When the Hammer Meets the Nail", and the encrypted-probabilistic-
// data-structures follow-up). Where PISA protects the SU's location
// with homomorphic sign tests through an STP, the PIR backend
// replicates a *plaintext* availability database across k
// non-colluding servers and lets the SU fetch its block's row with an
// XOR-based k-server PIR query: the SU sends each replica a
// random-looking selection vector, every replica XORs together the
// rows the vector selects, and the XOR of the k answers is exactly
// the queried row — while any k-1 colluding replicas see only
// uniformly random vectors and learn nothing about the SU's block.
//
// Two tables are served over the same query protocol:
//
//   - the bitmap table: one bit per channel per block — "is channel c
//     available at block b at the deployment's query power?" — exact,
//     C bits per row;
//   - the Bloom table: a per-block Bloom filter over the available
//     channel set — a compact set-membership row whose size is chosen
//     by false-positive budget rather than channel count, the
//     probabilistic-data-structure variant.
//
// The database is derived from the same PU budget state the PISA SDC
// holds (internal/watch), versioned so that clients can detect
// replicas that diverged mid-update, and rebuilt on plaintext PU
// churn (the replica-sync path). The trust trade-off against PISA is
// documented in DESIGN.md §13.
package pir

import (
	"crypto/rand"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"pisa/internal/geo"
	"pisa/internal/watch"
)

// Table selects which replicated table a query scans.
type Table uint8

// The served tables.
const (
	// TableBitmap is the exact per-block availability bitmap (bit c =
	// channel c available at the deployment's query power).
	TableBitmap Table = iota + 1
	// TableBloom is the per-block Bloom filter over the available
	// channel set (compact, false positives possible).
	TableBloom
)

// String names the table for logs.
func (t Table) String() string {
	switch t {
	case TableBitmap:
		return "bitmap"
	case TableBloom:
		return "bloom"
	default:
		return fmt.Sprintf("table(%d)", uint8(t))
	}
}

// Valid reports whether t names a served table.
func (t Table) Valid() bool { return t == TableBitmap || t == TableBloom }

// Meta describes the replicated database so a client can size its
// selection vectors and interpret the rows. Every replica of one
// deployment must report identical geometry.
type Meta struct {
	// Blocks and Channels are the grid geometry (B rows of C channels).
	Blocks   int
	Channels int
	// RowBytes is the bitmap row width: ceil(Channels/8).
	RowBytes int
	// BloomRowBytes, BloomBits and BloomHashes are the Bloom table
	// geometry: each row is a BloomBits-bit filter probed by
	// BloomHashes positions per channel.
	BloomRowBytes int
	BloomBits     int
	BloomHashes   int
	// MinEIRPUnits is the availability threshold the tables were built
	// at: bit (c, b) is set iff an SU at block b could be granted at
	// least this EIRP on channel c.
	MinEIRPUnits int64
	// Version counts database rebuilds; answers carry it so clients
	// can detect replicas that diverged mid-update.
	Version uint64
}

// SelBytes returns the selection-vector length for this geometry.
func (m Meta) SelBytes() int { return (m.Blocks + 7) / 8 }

// RowLen returns the row width of one table.
func (m Meta) RowLen(t Table) int {
	if t == TableBloom {
		return m.BloomRowBytes
	}
	return m.RowBytes
}

// Query is one replica's share of a PIR fetch: a packed selection
// vector over the B blocks. The replica XORs the rows of every
// selected block; it cannot tell the SU's block from the vector.
type Query struct {
	// Table selects the bitmap or Bloom table.
	Table Table
	// Sel is the packed B-bit selection vector (bit b = include block
	// b's row), exactly SelBytes() long.
	Sel []byte
}

// Answer is a replica's reply: the XOR of the selected rows, plus the
// database version it was computed against.
type Answer struct {
	Version uint64
	Row     []byte
}

// Update is the plaintext replica-sync message for PU churn: in the
// PIR trust model the spectrum-DB replicas hold plaintext PU state
// (the SU's *query* is what stays private), so updates travel in the
// clear and every replica applies them identically. Channel < 0
// switches the PU off, mirroring watch.Registration.
type Update struct {
	PUID        watch.PUID
	Block       geo.BlockID
	Channel     int
	SignalUnits int64
}

// maxPUIDLen caps the PU identifier a replica keeps, as the SDC caps
// its own.
const maxPUIDLen = 4096

// DefaultBloomBitsPerChannel sizes the Bloom table when the config
// does not: 16 bits per channel keeps the false-positive rate under
// 0.05% even with every channel inserted (h = 11 ~ 16·ln2).
const DefaultBloomBitsPerChannel = 16

// BloomGeometry resolves a Bloom table shape: bits <= 0 selects
// DefaultBloomBitsPerChannel per channel, hashes <= 0 the optimal
// count for the chosen density (m/n · ln2, at least 1).
func BloomGeometry(channels, bits, hashes int) (m, h int) {
	if bits <= 0 {
		bits = channels * DefaultBloomBitsPerChannel
	}
	if bits < 8 {
		bits = 8
	}
	if hashes <= 0 {
		hashes = int(float64(bits) / float64(channels) * 0.6931)
		if hashes < 1 {
			hashes = 1
		}
	}
	if hashes > 64 {
		hashes = 64
	}
	return bits, hashes
}

// FalsePositiveRate estimates the Bloom membership error with n
// entries inserted into an m-bit filter probed h times:
// (1 - e^(-hn/m))^h.
func FalsePositiveRate(m, h, n int) float64 {
	if m <= 0 || h <= 0 || n <= 0 {
		return 0
	}
	return math.Pow(1-math.Exp(-float64(h)*float64(n)/float64(m)), float64(h))
}

// Database is one replica's copy of the availability tables, derived
// from a plaintext watch.System and rebuilt on PU churn. Safe for
// concurrent queries and updates.
type Database struct {
	mu   sync.RWMutex
	sys  *watch.System
	meta Meta

	// bitmap and bloom are flat row-major tables: row b occupies
	// [b*stride, (b+1)*stride).
	bitmap []byte
	bloom  []byte

	// RebuildHook, when set, observes each availability rebuild's
	// duration (wired to the obs histogram by the serving layer).
	rebuildSeconds func(time.Duration)
}

// NewDatabase builds a replica database over the given radio
// parameters and TV-transmitter plan — the same inputs the PISA SDC
// derives its budget state from. minEIRPUnits is the availability
// threshold (0 selects the regulatory cap — "where is full power
// available?"); bloomBits and bloomHashes size the Bloom table (0
// selects defaults).
func NewDatabase(params watch.Params, transmitters []watch.TVTransmitter, minEIRPUnits int64, bloomBits, bloomHashes int) (*Database, error) {
	sys, err := watch.NewSystem(params, transmitters)
	if err != nil {
		return nil, err
	}
	if minEIRPUnits <= 0 {
		minEIRPUnits = params.Quantize(params.SUMaxEIRPmW)
	}
	m, h := BloomGeometry(params.Channels, bloomBits, bloomHashes)
	db := &Database{
		sys: sys,
		meta: Meta{
			Blocks:        params.Grid.Blocks(),
			Channels:      params.Channels,
			RowBytes:      (params.Channels + 7) / 8,
			BloomRowBytes: (m + 7) / 8,
			BloomBits:     m,
			BloomHashes:   h,
			MinEIRPUnits:  minEIRPUnits,
		},
	}
	if err := db.rebuild(); err != nil {
		return nil, err
	}
	return db, nil
}

// SetRebuildObserver installs a callback timing each availability
// rebuild (the serving layer points it at an obs histogram).
func (db *Database) SetRebuildObserver(fn func(time.Duration)) {
	db.mu.Lock()
	db.rebuildSeconds = fn
	db.mu.Unlock()
}

// Meta returns the current database description.
func (db *Database) Meta() Meta {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.meta
}

// rebuild recomputes both tables from the watch system and bumps the
// version. Caller must not hold db.mu.
func (db *Database) rebuild() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	start := time.Now()
	m := db.meta
	bitmap := make([]byte, m.Blocks*m.RowBytes)
	bloom := make([]byte, m.Blocks*m.BloomRowBytes)
	for c := 0; c < m.Channels; c++ {
		caps, err := db.sys.CapacityMap(c)
		if err != nil {
			return err
		}
		for b, maxEIRP := range caps {
			if maxEIRP < m.MinEIRPUnits {
				continue
			}
			bitmap[b*m.RowBytes+c/8] |= 1 << (c % 8)
			bloomInsert(bloom[b*m.BloomRowBytes:(b+1)*m.BloomRowBytes], m.BloomBits, m.BloomHashes, c)
		}
	}
	db.bitmap, db.bloom = bitmap, bloom
	db.meta.Version++
	if db.rebuildSeconds != nil {
		db.rebuildSeconds(time.Since(start))
	}
	return nil
}

// ApplyUpdate applies one plaintext PU registration (the replica-sync
// path) and rebuilds the availability tables. Re-applying the same
// update is idempotent: the registration is a set, and the rebuild is
// a pure function of the registry (only the version advances).
func (db *Database) ApplyUpdate(u *Update) error {
	if u == nil {
		return fmt.Errorf("pir: nil update")
	}
	// watch.System.UpdatePU checks the block and the signal of a PU that
	// tunes in; these hold for a switch-off too.
	if u.PUID == "" || len(u.PUID) > maxPUIDLen {
		return fmt.Errorf("pir: update PUID of %d bytes outside [1, %d]", len(u.PUID), maxPUIDLen)
	}
	if u.Block < 0 || u.SignalUnits < 0 {
		return fmt.Errorf("pir: update with negative block %d or signal %d", u.Block, u.SignalUnits)
	}
	db.mu.Lock()
	err := db.sys.UpdatePU(u.PUID, watch.Registration{
		Block: u.Block, Channel: u.Channel, SignalUnits: u.SignalUnits,
	})
	db.mu.Unlock()
	if err != nil {
		return err
	}
	return db.rebuild()
}

// Answer scans one table under the query's selection vector: the XOR
// of every selected row. The scan touches every block's row position
// regardless of the vector's weight, so timing reveals nothing about
// the selection.
func (db *Database) Answer(q *Query) (*Answer, error) {
	if q == nil {
		return nil, fmt.Errorf("pir: nil query")
	}
	if !q.Table.Valid() {
		return nil, fmt.Errorf("pir: unknown table %s", q.Table)
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	m := db.meta
	if want := m.SelBytes(); len(q.Sel) != want {
		return nil, fmt.Errorf("pir: selection vector is %d bytes, want %d for %d blocks",
			len(q.Sel), want, m.Blocks)
	}
	table, stride := db.bitmap, m.RowBytes
	if q.Table == TableBloom {
		table, stride = db.bloom, m.BloomRowBytes
	}
	out := make([]byte, stride)
	for b := 0; b < m.Blocks; b++ {
		// mask is 0x00 or 0xFF depending on the selection bit; XORing
		// row&mask for every block keeps the scan oblivious to the
		// vector's weight.
		mask := -(q.Sel[b/8] >> (b % 8) & 1)
		row := table[b*stride : (b+1)*stride]
		for i, v := range row {
			out[i] ^= v & mask
		}
	}
	return &Answer{Version: m.Version, Row: out}, nil
}

// Row returns one table row directly — the plaintext oracle the PIR
// reconstruction is cross-checked against in tests and benchmarks.
func (db *Database) Row(t Table, b geo.BlockID) ([]byte, error) {
	if !t.Valid() {
		return nil, fmt.Errorf("pir: unknown table %s", t)
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	m := db.meta
	if b < 0 || int(b) >= m.Blocks {
		return nil, fmt.Errorf("pir: block %d outside [0, %d)", b, m.Blocks)
	}
	table, stride := db.bitmap, m.RowBytes
	if t == TableBloom {
		table, stride = db.bloom, m.BloomRowBytes
	}
	out := make([]byte, stride)
	copy(out, table[int(b)*stride:(int(b)+1)*stride])
	return out, nil
}

// ActivePUs reports the registered PU count (for daemon summaries).
func (db *Database) ActivePUs() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.sys.ActivePUs()
}

// BuildVectors splits a fetch of block target over k replicas: k-1
// uniformly random B-bit vectors plus one correction vector, so the
// XOR of all k is exactly the unit vector e_target. Any k-1 of them
// are jointly uniform — a coalition of fewer than k replicas learns
// nothing about target. random nil selects crypto/rand.
func BuildVectors(random io.Reader, blocks, k int, target geo.BlockID) ([][]byte, error) {
	if blocks <= 0 {
		return nil, fmt.Errorf("pir: blocks must be positive, got %d", blocks)
	}
	if k < 1 {
		return nil, fmt.Errorf("pir: need at least 1 replica share, got %d", k)
	}
	if target < 0 || int(target) >= blocks {
		return nil, fmt.Errorf("pir: target block %d outside [0, %d)", target, blocks)
	}
	if random == nil {
		random = rand.Reader
	}
	selBytes := (blocks + 7) / 8
	vectors := make([][]byte, k)
	last := make([]byte, selBytes)
	for i := 0; i < k-1; i++ {
		v := make([]byte, selBytes)
		if _, err := io.ReadFull(random, v); err != nil {
			return nil, fmt.Errorf("pir: drawing selection vector: %w", err)
		}
		// Bits past the block count stay zero so replicas can reject
		// malformed vectors without leaking which bits matter.
		clearTail(v, blocks)
		XORBytes(last, v)
		vectors[i] = v
	}
	last[target/8] ^= 1 << (target % 8)
	vectors[k-1] = last
	return vectors, nil
}

// clearTail zeroes the padding bits past the block count.
func clearTail(v []byte, blocks int) {
	if rem := blocks % 8; rem != 0 {
		v[len(v)-1] &= byte(1<<rem) - 1
	}
}

// XORBytes folds src into dst in place; the slices must be the same
// length.
func XORBytes(dst, src []byte) {
	for i := range src {
		dst[i] ^= src[i]
	}
}

// Reconstruct XORs the k replica answers back into the queried row.
// All rows must share one length.
func Reconstruct(rows [][]byte) ([]byte, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("pir: no answers to reconstruct from")
	}
	out := make([]byte, len(rows[0]))
	for i, row := range rows {
		if len(row) != len(out) {
			return nil, fmt.Errorf("pir: answer %d is %d bytes, want %d", i, len(row), len(out))
		}
		XORBytes(out, row)
	}
	return out, nil
}

// BitmapHas reports whether the bitmap row marks channel c available.
func BitmapHas(row []byte, c int) bool {
	if c < 0 || c/8 >= len(row) {
		return false
	}
	return row[c/8]>>(c%8)&1 == 1
}
