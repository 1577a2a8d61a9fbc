// Package store is the durability subsystem for the PISA daemons: an
// append-only write-ahead log (WAL) of state-mutating events plus
// periodic atomic snapshots of the full serialised state.
//
// The paper's SDC is described as a database service, but the
// reproduction originally held the entire encrypted system state — the
// budget matrix N~, every PU's submitted signal column, the PU/SU
// registries — only in memory, so a crash silently discarded all
// spectrum state. This package makes that state survive restarts:
//
//   - every accepted mutation is appended to the WAL and fsynced before
//     the caller acknowledges it (framing: length + CRC32-C per record,
//     single write(2) per append, so a crash tears at most the final
//     record); the first failed write or fsync stops the log until the
//     store is reopened, so nothing is ever appended behind a torn frame;
//   - a snapshot of the whole state is persisted atomically (a temp
//     file, renamed into place, then a directory fsync) and supersedes
//     the log prefix it covers, after which older segments and snapshots
//     are deleted (compaction);
//   - recovery is snapshot-load + replay of the WAL tail, tolerating a
//     torn final record but refusing to guess past mid-log corruption.
//
// The package knows nothing about PISA message types: records are
// (type byte, payload) pairs and snapshots are opaque byte slices.
// internal/pisa supplies the encodings; internal/deploy and cmd/stpd
// wire the snapshot policy.
package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// Options tunes one Store.
type Options struct {
	// SegmentBytes rotates the active segment once it grows past this
	// size (default 64 MiB).
	SegmentBytes int64
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	return o
}

// segment is the active WAL segment as the Store writes it. *os.File is
// the only production implementation; tests substitute one that counts
// syncs and injects write and sync faults.
type segment interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// RecordType discriminates WAL record payloads. The values are owned
// by the caller (internal/pisa defines the PISA record set); the store
// only round-trips them.
type RecordType uint8

// Record is one WAL entry. Index is the global, gapless,
// monotonically increasing position assigned at append time.
type Record struct {
	Index   uint64
	Type    RecordType
	Payload []byte
}

// Recovery describes what Open reconstructed, for boot-time logging.
type Recovery struct {
	// Source is "empty", "snapshot", "wal" or "snapshot+wal".
	Source string
	// SnapshotIndex is the last record index the loaded snapshot
	// covers (0 when none).
	SnapshotIndex uint64
	// TailRecords counts WAL records newer than the snapshot that the
	// caller must replay.
	TailRecords int
	// TornBytes is the size of the torn final append that was
	// truncated away (0 for a clean shutdown).
	TornBytes int64
}

// Stats is a point-in-time view of the store, for operational logging
// and snapshot scheduling.
type Stats struct {
	LastIndex            uint64
	SnapshotIndex        uint64
	RecordsSinceSnapshot uint64
	Segments             int
	ActiveSegmentBytes   int64
}

// Store is one open WAL + snapshot directory. Append and SaveSnapshot
// are safe for concurrent use.
type Store struct {
	dir  string
	opts Options

	mu          sync.Mutex
	f           segment // active segment
	activeBytes int64
	segments    int // segment files on disk, including the active one
	lastIndex   uint64
	snapIndex   uint64
	snapshot    []byte
	tail        []Record
	recovery    Recovery
	// failed is the first write, sync or rotation failure. It stops
	// the log until the store is reopened: a partial or unsynced frame
	// may sit at the end of the active segment, and a frame appended
	// behind it would turn a torn tail into mid-log corruption.
	failed error
	closed bool
}

// ShardDir names the state subdirectory for one channel shard of a
// sharded SDC, so N shards hosted from one -store root keep disjoint
// WALs and snapshots. Open creates it on first use.
func ShardDir(dir string, index int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%d", index))
}

// Open recovers (or initialises) the store rooted at dir: loads the
// newest snapshot, replays every intact WAL record past it into the
// tail, truncates a torn final append, and positions the log for new
// appends. Mid-log corruption — a record that fails its checksum with
// valid data behind it, or an impossible length field — is an error;
// the store never silently drops acknowledged interior records.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, opts: opts}

	// Leftover temp files are failed snapshot publications; the rename
	// never happened, so they supersede nothing.
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".tmp") {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}

	// Newest snapshot wins. A corrupt newest snapshot is fatal rather
	// than a silent fallback: compaction deleted the WAL prefix it
	// covered, so older state cannot reproduce it.
	snaps := listSnapshots(entries)
	if len(snaps) > 0 {
		payload, idx, err := readSnapshot(filepath.Join(dir, snaps[0].name))
		if err != nil {
			return nil, err
		}
		if idx != snaps[0].first {
			return nil, fmt.Errorf("store: snapshot %s header index %d disagrees with its name", snaps[0].name, idx)
		}
		s.snapshot = payload
		s.snapIndex = idx
		s.lastIndex = idx
		// Older snapshots are superseded; a crash may have left them.
		for _, old := range snaps[1:] {
			os.Remove(filepath.Join(dir, old.name))
		}
	}

	segs := listSegments(entries)
	if len(segs) > 0 && segs[0].first > s.snapIndex+1 {
		return nil, fmt.Errorf("store: WAL gap: first segment starts at record %d but snapshot covers only %d",
			segs[0].first, s.snapIndex)
	}
	var (
		activeScan segScan
		activeRef  segmentRef
	)
	next := uint64(0) // expected first index of the next segment; 0 = unchecked
	for i, seg := range segs {
		if next != 0 && seg.first != next {
			return nil, fmt.Errorf("store: WAL gap: segment %s starts at record %d, want %d",
				seg.name, seg.first, next)
		}
		scan, err := scanSegment(filepath.Join(dir, seg.name), seg.first)
		if err != nil {
			return nil, err
		}
		if scan.torn && i != len(segs)-1 {
			return nil, fmt.Errorf("store: segment %s is torn mid-log: %v", seg.name, scan.tornErr)
		}
		for _, rec := range scan.records {
			if rec.Index > s.lastIndex {
				s.lastIndex = rec.Index
			}
			if rec.Index > s.snapIndex {
				s.tail = append(s.tail, rec)
			}
		}
		next = seg.first + uint64(len(scan.records))
		if i == len(segs)-1 {
			activeScan = scan
			activeRef = seg
		}
	}
	s.segments = len(segs)

	// Open (or create) the active segment for appending, truncating a
	// torn tail first so the next append starts on a frame boundary.
	if len(segs) == 0 {
		if err := s.createSegmentLocked(s.lastIndex + 1); err != nil {
			if s.f != nil {
				s.f.Close()
			}
			return nil, err
		}
	} else {
		f, err := os.OpenFile(filepath.Join(dir, activeRef.name), os.O_RDWR, 0)
		if err != nil {
			return nil, fmt.Errorf("store: open active segment: %w", err)
		}
		if activeScan.torn {
			size, serr := f.Seek(0, 2)
			if serr == nil {
				s.recovery.TornBytes = size - activeScan.goodBytes
			}
			if err := f.Truncate(activeScan.goodBytes); err != nil {
				f.Close()
				return nil, fmt.Errorf("store: truncate torn tail: %w", err)
			}
			if err := f.Sync(); err != nil {
				f.Close()
				return nil, fmt.Errorf("store: sync truncated segment: %w", err)
			}
		}
		if _, err := f.Seek(activeScan.goodBytes, 0); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: seek active segment: %w", err)
		}
		s.f = f
		s.activeBytes = activeScan.goodBytes
	}

	s.recovery.SnapshotIndex = s.snapIndex
	s.recovery.TailRecords = len(s.tail)
	switch {
	case s.snapshot != nil && len(s.tail) > 0:
		s.recovery.Source = "snapshot+wal"
	case s.snapshot != nil:
		s.recovery.Source = "snapshot"
	case len(s.tail) > 0:
		s.recovery.Source = "wal"
	default:
		s.recovery.Source = "empty"
	}

	s.bridgeObs()
	return s, nil
}

// createSegmentLocked starts a fresh segment whose first record will
// have the given index, and syncs the directory so the file's name is
// as durable as the frames later synced into it. Caller holds s.mu (or
// is still constructing).
func (s *Store) createSegmentLocked(first uint64) error {
	f, err := os.OpenFile(filepath.Join(s.dir, segmentName(first)), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("store: create segment: %w", err)
	}
	s.f = f
	s.activeBytes = 0
	s.segments++
	return syncDir(s.dir)
}

// Recovery reports what Open reconstructed.
func (s *Store) Recovery() Recovery {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovery
}

// SnapshotData returns the payload of the snapshot loaded at Open (nil
// when the directory held none). The caller restores state from it,
// then replays Tail.
func (s *Store) SnapshotData() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshot
}

// Tail returns the WAL records newer than the loaded snapshot, in
// append order. Records appended after Open are not included — the
// tail is recovery state, not a live view.
func (s *Store) Tail() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tail
}

// Append writes one record and syncs the active segment, returning the
// record's index: a record Append acknowledges is on disk. The first
// failed write, sync or rotation stops the log — this and every later
// Append and SaveSnapshot return an error naming it — until the store
// is reopened, and Open then truncates whatever part of the failed
// frame reached the file as a torn tail.
func (s *Store) Append(t RecordType, payload []byte) (idx uint64, err error) {
	m := smetrics()
	defer m.appendSeconds.ObserveSince(time.Now())
	defer func() {
		if err != nil {
			m.appendErrs.Inc()
		}
	}()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usableLocked("append"); err != nil {
		return 0, err
	}
	if len(payload) >= maxRecordBytes {
		return 0, fmt.Errorf("store: record payload %d bytes exceeds limit", len(payload))
	}
	if s.f == nil {
		return 0, fmt.Errorf("store: no active segment (previous compaction failed)")
	}
	if s.activeBytes >= s.opts.SegmentBytes {
		if err := s.rotateLocked(); err != nil {
			return 0, s.stopLocked(err)
		}
	}
	frame := appendFrame(nil, t, payload)
	if _, err := s.f.Write(frame); err != nil {
		return 0, s.stopLocked(fmt.Errorf("store: append: %w", err))
	}
	t0 := time.Now()
	if err := s.f.Sync(); err != nil {
		m.fsyncErrs.Inc()
		return 0, s.stopLocked(fmt.Errorf("store: fsync: %w", err))
	}
	m.fsyncSeconds.ObserveSince(t0)
	s.lastIndex++
	s.activeBytes += int64(len(frame))
	m.appendBytes.Add(uint64(len(frame)))
	return s.lastIndex, nil
}

// usableLocked refuses an operation on a closed or stopped store.
func (s *Store) usableLocked(op string) error {
	if s.closed {
		return fmt.Errorf("store: %s on closed store", op)
	}
	if s.failed != nil {
		return fmt.Errorf("store: %s refused: the log stopped at an earlier failure (reopen to recover): %w", op, s.failed)
	}
	return nil
}

// stopLocked records err as the failure that stops the log and
// returns it.
func (s *Store) stopLocked(err error) error {
	s.failed = err
	return err
}

// rotateLocked closes the active segment and starts the next one.
// Every frame in the old segment was synced by its Append.
func (s *Store) rotateLocked() error {
	err := s.f.Close()
	s.f = nil
	if err != nil {
		return fmt.Errorf("store: close segment: %w", err)
	}
	return s.createSegmentLocked(s.lastIndex + 1)
}

// SaveSnapshot atomically persists state as covering every record
// appended so far, then compacts: all WAL segments and older snapshots
// are superseded and deleted, and a fresh segment is started. The
// caller must pass state that reflects at least every acknowledged
// append (ExportState called after the last Append does).
func (s *Store) SaveSnapshot(state []byte) (err error) {
	m := smetrics()
	defer m.snapSeconds.ObserveSince(time.Now())
	defer func() {
		if err != nil {
			m.snapErrs.Inc()
		} else {
			m.snapBytes.Set(int64(len(state)))
		}
	}()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usableLocked("snapshot"); err != nil {
		return err
	}
	// Every record up to index was synced by its Append, so a crash
	// while the snapshot is written still recovers snapshot[old] plus
	// the complete log.
	index := s.lastIndex
	if _, err := writeSnapshot(s.dir, index, state); err != nil {
		return err
	}
	// The snapshot is durable; everything it covers is garbage now.
	// Crash anywhere below and recovery skips the stale records.
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, snap := range listSnapshots(entries) {
		if snap.first != index {
			os.Remove(filepath.Join(s.dir, snap.name))
		}
	}
	// s.f may already be nil if a previous SaveSnapshot failed at
	// createSegmentLocked (e.g. transient disk-full); this call then
	// retries the segment creation instead of wedging on a nil close.
	if s.f != nil {
		err := s.f.Close()
		s.f = nil
		if err != nil {
			return fmt.Errorf("store: close segment: %w", err)
		}
	}
	for _, seg := range listSegments(entries) {
		os.Remove(filepath.Join(s.dir, seg.name))
	}
	s.segments = 0
	if err := s.createSegmentLocked(index + 1); err != nil {
		return err
	}
	s.snapIndex = index
	s.snapshot = nil // recovery payload only; do not pin post-boot
	s.tail = nil
	return nil
}

// Stats returns the current counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		LastIndex:            s.lastIndex,
		SnapshotIndex:        s.snapIndex,
		RecordsSinceSnapshot: s.lastIndex - s.snapIndex,
		Segments:             s.segments,
		ActiveSegmentBytes:   s.activeBytes,
	}
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Close releases the store. Every record Append acknowledged is
// already on disk for the next Open. Safe for concurrent and repeated
// calls: only the first closes the segment, the rest return nil.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}
