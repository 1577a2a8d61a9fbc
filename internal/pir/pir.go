// Package pir implements the multi-server information-theoretic PIR
// spectrum-query backend: the alternative point in the CRN
// location-privacy design space explored by Grissa, Yavuz & Hamdaoui
// ("When the Hammer Meets the Nail", and the encrypted-probabilistic-
// data-structures follow-up). Where PISA protects the SU's location
// with homomorphic sign tests through an STP, the PIR backend
// replicates a *plaintext* availability bitmap across k non-colluding
// servers — one bit per channel per block, "is channel c available at
// block b at the regulatory cap?" — and lets the SU fetch its block's
// row with an XOR-based k-server PIR query: the SU sends each replica
// a random-looking selection vector, every replica XORs together the
// rows the vector selects, and the XOR of the k answers is exactly
// the queried row — while any k-1 colluding replicas see only
// uniformly random vectors and learn nothing about the SU's block.
//
// The database is derived from the same PU budget state the PISA SDC
// holds (internal/watch) and versioned, so that clients can detect
// replicas that diverged after an update. The backend is an
// in-process comparison (cmd/pisaload -backend pir): nothing keeps a
// networked replica fleet current with PU churn. The trust trade-off
// against PISA is documented in DESIGN.md §13.
package pir

import (
	"crypto/rand"
	"fmt"
	"io"
	"sync"

	"pisa/internal/geo"
	"pisa/internal/watch"
)

// Meta describes the replicated database so a client can size its
// selection vectors and interpret the rows. Every replica of one
// deployment must report identical geometry.
type Meta struct {
	// Blocks and Channels are the grid geometry (B rows of C channels).
	Blocks   int
	Channels int
	// RowBytes is the bitmap row width: ceil(Channels/8).
	RowBytes int
	// MinEIRPUnits is the availability threshold the bitmap was built
	// at: bit (c, b) is set iff an SU at block b could be granted at
	// least this EIRP on channel c.
	MinEIRPUnits int64
	// Version counts database rebuilds; answers carry it so clients
	// can detect replicas that diverged mid-update.
	Version uint64
}

// SelBytes returns the selection-vector length for this geometry.
func (m Meta) SelBytes() int { return (m.Blocks + 7) / 8 }

// Query is one replica's share of a PIR fetch: a packed selection
// vector over the B blocks. The replica XORs the rows of every
// selected block; it cannot tell the SU's block from the vector.
type Query struct {
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

// Update is one plaintext PU registration: in the PIR trust model the
// spectrum-DB replicas hold plaintext PU state (the SU's *query* is
// what stays private). Channel < 0 switches the PU off, mirroring
// watch.Registration.
type Update struct {
	PUID        watch.PUID
	Block       geo.BlockID
	Channel     int
	SignalUnits int64
}

// maxPUIDLen caps the PU identifier a replica keeps, as the SDC caps
// its own.
const maxPUIDLen = 4096

// Database is one replica's copy of the availability bitmap, derived
// from a plaintext watch.System and rebuilt on every applied update.
// Safe for concurrent queries and updates.
type Database struct {
	mu   sync.RWMutex
	sys  *watch.System
	meta Meta

	// bitmap is a flat row-major table: row b occupies
	// [b*RowBytes, (b+1)*RowBytes).
	bitmap []byte
}

// NewDatabase builds a replica database over the given radio
// parameters — the inputs the PISA SDC derives its budget state from —
// with no PU registered. A bit is set where the regulatory cap is
// available ("where is full power available?").
func NewDatabase(params watch.Params) (*Database, error) {
	sys, err := watch.NewSystem(params, nil)
	if err != nil {
		return nil, err
	}
	db := &Database{
		sys: sys,
		meta: Meta{
			Blocks:       params.Grid.Blocks(),
			Channels:     params.Channels,
			RowBytes:     (params.Channels + 7) / 8,
			MinEIRPUnits: params.Quantize(params.SUMaxEIRPmW),
		},
	}
	if err := db.rebuild(); err != nil {
		return nil, err
	}
	return db, nil
}

// Meta returns the current database description.
func (db *Database) Meta() Meta {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.meta
}

// rebuild recomputes the bitmap from the watch system and bumps the
// version. Caller must not hold db.mu.
func (db *Database) rebuild() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	m := db.meta
	bitmap := make([]byte, m.Blocks*m.RowBytes)
	for c := 0; c < m.Channels; c++ {
		caps, err := db.sys.CapacityMap(c)
		if err != nil {
			return err
		}
		for b, maxEIRP := range caps {
			if maxEIRP >= m.MinEIRPUnits {
				bitmap[b*m.RowBytes+c/8] |= 1 << (c % 8)
			}
		}
	}
	db.bitmap = bitmap
	db.meta.Version++
	return nil
}

// ApplyUpdate applies one plaintext PU registration and rebuilds the
// bitmap. Re-applying the same update is idempotent: the registration
// is a set, and the rebuild is a pure function of the registry (only
// the version advances).
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

// Answer scans the bitmap under the query's selection vector: the XOR
// of every selected row. The scan touches every block's row position
// regardless of the vector's weight, so timing reveals nothing about
// the selection.
func (db *Database) Answer(q *Query) (*Answer, error) {
	if q == nil {
		return nil, fmt.Errorf("pir: nil query")
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	m := db.meta
	if want := m.SelBytes(); len(q.Sel) != want {
		return nil, fmt.Errorf("pir: selection vector is %d bytes, want %d for %d blocks",
			len(q.Sel), want, m.Blocks)
	}
	out := make([]byte, m.RowBytes)
	for b := 0; b < m.Blocks; b++ {
		// mask is 0x00 or 0xFF depending on the selection bit; XORing
		// row&mask for every block keeps the scan oblivious to the
		// vector's weight.
		mask := -(q.Sel[b/8] >> (b % 8) & 1)
		row := db.bitmap[b*m.RowBytes : (b+1)*m.RowBytes]
		for i, v := range row {
			out[i] ^= v & mask
		}
	}
	return &Answer{Version: m.Version, Row: out}, nil
}

// Row returns one bitmap row directly — the plaintext oracle the PIR
// reconstruction is cross-checked against in tests.
func (db *Database) Row(b geo.BlockID) ([]byte, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	m := db.meta
	if b < 0 || int(b) >= m.Blocks {
		return nil, fmt.Errorf("pir: block %d outside [0, %d)", b, m.Blocks)
	}
	out := make([]byte, m.RowBytes)
	copy(out, db.bitmap[int(b)*m.RowBytes:(int(b)+1)*m.RowBytes])
	return out, nil
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
