package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
)

func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func appendN(t *testing.T, s *Store, typ RecordType, n int, tag string) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := s.Append(typ, []byte(fmt.Sprintf("%s-%d", tag, i))); err != nil {
			t.Fatal(err)
		}
	}
}

// lastSegmentPath finds the newest WAL segment file.
func lastSegmentPath(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	segs := listSegments(entries)
	if len(segs) == 0 {
		t.Fatal("no segments")
	}
	return filepath.Join(dir, segs[len(segs)-1].name)
}

func countFiles(t *testing.T, dir, prefix string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), prefix) {
			n++
		}
	}
	return n
}

func TestStoreEmptyDir(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	defer s.Close()
	rec := s.Recovery()
	if rec.Source != "empty" || rec.TailRecords != 0 || rec.TornBytes != 0 {
		t.Fatalf("recovery = %+v, want empty", rec)
	}
	if s.SnapshotData() != nil {
		t.Fatal("snapshot data from empty dir")
	}
}

func TestStoreAppendReplay(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	appendN(t, s, 7, 5, "rec")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	rec := s2.Recovery()
	if rec.Source != "wal" {
		t.Fatalf("source = %q, want wal", rec.Source)
	}
	tail := s2.Tail()
	if len(tail) != 5 {
		t.Fatalf("tail has %d records, want 5", len(tail))
	}
	for i, r := range tail {
		want := fmt.Sprintf("rec-%d", i)
		if r.Type != 7 || string(r.Payload) != want || r.Index != uint64(i+1) {
			t.Fatalf("record %d = {%d %d %q}, want {%d 7 %q}", i, r.Index, r.Type, r.Payload, i+1, want)
		}
	}
	// Appends continue the index sequence.
	idx, err := s2.Append(7, []byte("more"))
	if err != nil {
		t.Fatal(err)
	}
	if idx != 6 {
		t.Fatalf("next index = %d, want 6", idx)
	}
}

func TestStoreSnapshotSupersedesAndCompacts(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{SegmentBytes: 64})
	appendN(t, s, 1, 10, "old") // tiny SegmentBytes forces several segments
	if countFiles(t, dir, "wal-") < 2 {
		t.Fatal("rotation did not produce multiple segments")
	}
	if err := s.SaveSnapshot([]byte("STATE-A")); err != nil {
		t.Fatal(err)
	}
	if got := countFiles(t, dir, "wal-"); got != 1 {
		t.Fatalf("%d segments after compaction, want 1 fresh one", got)
	}
	if got := countFiles(t, dir, "snap-"); got != 1 {
		t.Fatalf("%d snapshots, want 1", got)
	}
	appendN(t, s, 2, 3, "new")
	st := s.Stats()
	if st.RecordsSinceSnapshot != 3 || st.SnapshotIndex != 10 || st.LastIndex != 13 {
		t.Fatalf("stats = %+v", st)
	}
	// A second snapshot deletes the first.
	if err := s.SaveSnapshot([]byte("STATE-B")); err != nil {
		t.Fatal(err)
	}
	if got := countFiles(t, dir, "snap-"); got != 1 {
		t.Fatalf("%d snapshots after second save, want 1", got)
	}
	appendN(t, s, 2, 2, "tail")
	s.Close()

	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	rec := s2.Recovery()
	if rec.Source != "snapshot+wal" || rec.SnapshotIndex != 13 || rec.TailRecords != 2 {
		t.Fatalf("recovery = %+v", rec)
	}
	if !bytes.Equal(s2.SnapshotData(), []byte("STATE-B")) {
		t.Fatalf("snapshot payload = %q", s2.SnapshotData())
	}
	tail := s2.Tail()
	if len(tail) != 2 || string(tail[0].Payload) != "tail-0" || tail[0].Index != 14 {
		t.Fatalf("tail = %+v", tail)
	}
}

func TestStoreSnapshotOnly(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	appendN(t, s, 1, 4, "x")
	if err := s.SaveSnapshot([]byte("S")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	if rec := s2.Recovery(); rec.Source != "snapshot" || rec.TailRecords != 0 {
		t.Fatalf("recovery = %+v, want snapshot only", rec)
	}
}

// TestStoreTornTail simulates kill -9 mid-append: the final record is
// cut at several byte positions; every fully written record must
// survive and the torn bytes must be dropped cleanly.
func TestStoreTornTail(t *testing.T) {
	frame := len(appendFrame(nil, 3, []byte("payload-0")))
	for _, cut := range []int{1, frameHeaderLen - 1, frameHeaderLen, frameHeaderLen + 3, frame - 1} {
		t.Run(fmt.Sprintf("cut-%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, dir, Options{})
			appendN(t, s, 3, 4, "payload")
			s.Close()

			seg := lastSegmentPath(t, dir)
			info, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			// Keep 3 full records plus `cut` bytes of the fourth.
			keep := info.Size() - int64(frame) + int64(cut)
			if err := os.Truncate(seg, keep); err != nil {
				t.Fatal(err)
			}

			s2 := mustOpen(t, dir, Options{})
			defer s2.Close()
			rec := s2.Recovery()
			if rec.TornBytes != int64(cut) {
				t.Fatalf("torn bytes = %d, want %d", rec.TornBytes, cut)
			}
			tail := s2.Tail()
			if len(tail) != 3 {
				t.Fatalf("%d records survived, want 3", len(tail))
			}
			for i, r := range tail {
				if string(r.Payload) != fmt.Sprintf("payload-%d", i) {
					t.Fatalf("record %d corrupted: %q", i, r.Payload)
				}
			}
			// The log must keep working: append and re-open once more.
			if idx, err := s2.Append(3, []byte("after-crash")); err != nil || idx != 4 {
				t.Fatalf("append after torn recovery: idx=%d err=%v", idx, err)
			}
			s2.Close()
			s3 := mustOpen(t, dir, Options{})
			defer s3.Close()
			if got := len(s3.Tail()); got != 4 {
				t.Fatalf("after reopen, tail = %d records, want 4", got)
			}
		})
	}
}

// TestStoreTornChecksumTail flips a byte inside the final record's
// payload: a complete-but-corrupt final frame also counts as torn.
func TestStoreTornChecksumTail(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	appendN(t, s, 3, 3, "v")
	s.Close()
	seg := lastSegmentPath(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	if got := len(s2.Tail()); got != 2 {
		t.Fatalf("%d records survived, want 2", got)
	}
	if s2.Recovery().TornBytes == 0 {
		t.Fatal("corrupt final record not reported as torn")
	}
}

// TestStoreRejectsMidLogCorruption flips a byte in the FIRST record
// while later records are intact: that is disk corruption, not a torn
// append, and recovery must refuse rather than drop acknowledged data.
func TestStoreRejectsMidLogCorruption(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	appendN(t, s, 3, 3, "v")
	s.Close()
	seg := lastSegmentPath(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[frameHeaderLen+1] ^= 0xff // inside record 1's payload
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("mid-log corruption accepted")
	}
}

// TestStoreRejectsCorruptSnapshot: the newest snapshot failing its
// checksum is fatal — its WAL prefix was compacted away, so falling
// back silently would lose state.
func TestStoreRejectsCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	appendN(t, s, 1, 2, "x")
	if err := s.SaveSnapshot([]byte("precious")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	snaps := listSnapshots(entries)
	path := filepath.Join(dir, snaps[0].name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
}

// TestStoreLeftoverTmpIgnored: a crash during snapshot publication
// leaves a .tmp file; recovery must ignore and remove it.
func TestStoreLeftoverTmpIgnored(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	appendN(t, s, 1, 2, "x")
	s.Close()
	tmp := filepath.Join(dir, snapshotName(99)+".tmp")
	if err := os.WriteFile(tmp, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	if rec := s2.Recovery(); rec.Source != "wal" || rec.TailRecords != 2 {
		t.Fatalf("recovery = %+v", rec)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("leftover .tmp not cleaned")
	}
}

func TestStoreRotationAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{SegmentBytes: 48})
	appendN(t, s, 9, 20, "r")
	if s.Stats().Segments < 3 {
		t.Fatalf("segments = %d, want several", s.Stats().Segments)
	}
	s.Close()
	s2 := mustOpen(t, dir, Options{SegmentBytes: 48})
	defer s2.Close()
	tail := s2.Tail()
	if len(tail) != 20 {
		t.Fatalf("replayed %d records across segments, want 20", len(tail))
	}
	for i, r := range tail {
		if r.Index != uint64(i+1) || string(r.Payload) != fmt.Sprintf("r-%d", i) {
			t.Fatalf("record %d = {%d %q}", i, r.Index, r.Payload)
		}
	}
}

// TestStoreConcurrentAppend exercises the append path under -race and
// checks the indices come back gapless.
func TestStoreConcurrentAppend(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{SegmentBytes: 256})
	const goroutines, each = 8, 25
	var wg sync.WaitGroup
	seen := make([]map[uint64]bool, goroutines)
	for g := 0; g < goroutines; g++ {
		seen[g] = make(map[uint64]bool)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				idx, err := s.Append(RecordType(g), []byte("concurrent"))
				if err != nil {
					t.Error(err)
					return
				}
				seen[g][idx] = true
			}
		}(g)
	}
	wg.Wait()
	all := make(map[uint64]bool)
	for _, m := range seen {
		for idx := range m {
			if all[idx] {
				t.Fatalf("index %d assigned twice", idx)
			}
			all[idx] = true
		}
	}
	if len(all) != goroutines*each {
		t.Fatalf("%d distinct indices, want %d", len(all), goroutines*each)
	}
	s.Close()
	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	if got := len(s2.Tail()); got != goroutines*each {
		t.Fatalf("replayed %d, want %d", got, goroutines*each)
	}
}

// TestStoreSnapshotRetryAfterFailedCompaction: a SaveSnapshot that
// fails at fresh-segment creation (e.g. transient disk-full) leaves the
// store with no active segment. A later SaveSnapshot must recreate one
// instead of wedging on a nil segment close forever.
func TestStoreSnapshotRetryAfterFailedCompaction(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	appendN(t, s, 1, 3, "x")
	// Put the store in the post-failure state: segment closed and
	// detached, exactly as a SaveSnapshot aborted mid-compaction does.
	s.mu.Lock()
	s.f.Close()
	s.f = nil
	s.mu.Unlock()
	if _, err := s.Append(1, []byte("y")); err == nil {
		t.Fatal("append with no active segment succeeded")
	}
	if err := s.SaveSnapshot([]byte("S")); err != nil {
		t.Fatalf("snapshot retry with no active segment: %v", err)
	}
	if idx, err := s.Append(1, []byte("after")); err != nil || idx != 4 {
		t.Fatalf("append after retry: idx=%d err=%v", idx, err)
	}
	s.Close()
	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	rec := s2.Recovery()
	if rec.Source != "snapshot+wal" || rec.SnapshotIndex != 3 || rec.TailRecords != 1 {
		t.Fatalf("recovery = %+v, want snapshot at 3 plus 1 tail record", rec)
	}
}

// TestStoreCloseConcurrent: racing Close calls close the segment once
// and all return nil (run under -race in CI).
func TestStoreCloseConcurrent(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	appendN(t, s, 1, 3, "x")
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Close(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

// TestStoreCrashBetweenSnapshotAndCompaction simulates a crash after
// the snapshot rename but before the old segments are deleted: stale
// segments whose records the snapshot covers must be skipped.
func TestStoreCrashBetweenSnapshotAndCompaction(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	appendN(t, s, 1, 5, "pre")
	s.Close()
	// Write the snapshot by hand (as SaveSnapshot would) without
	// compacting, mimicking the crash window.
	if _, err := writeSnapshot(dir, 5, []byte("covers-5")); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	rec := s2.Recovery()
	if rec.Source != "snapshot" || rec.SnapshotIndex != 5 || rec.TailRecords != 0 {
		t.Fatalf("recovery = %+v, want snapshot covering the stale segment", rec)
	}
	if idx, err := s2.Append(1, []byte("next")); err != nil || idx != 6 {
		t.Fatalf("append after partial compaction: idx=%d err=%v", idx, err)
	}
}

// faultSegment wraps the active segment: it logs every write and sync
// in order, and can fail one write halfway (what a short write(2)
// leaves behind) or fail syncs.
type faultSegment struct {
	segment
	ops       []string
	shortNext bool // the next Write stores half the frame and fails
	failSync  bool // every Sync fails
}

func (f *faultSegment) Write(p []byte) (int, error) {
	f.ops = append(f.ops, "write")
	if f.shortNext {
		f.shortNext = false
		n, _ := f.segment.Write(p[:len(p)/2])
		return n, io.ErrShortWrite
	}
	return f.segment.Write(p)
}

func (f *faultSegment) Sync() error {
	f.ops = append(f.ops, "sync")
	if f.failSync {
		return errors.New("injected fsync failure")
	}
	return f.segment.Sync()
}

// injectFaults puts a faultSegment in front of the store's active
// segment.
func injectFaults(s *Store) *faultSegment {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := &faultSegment{segment: s.f}
	s.f = f
	return f
}

// TestStoreAppendSyncsBeforeAck: every Append that returns nil wrote
// its frame and then synced the segment holding it exactly once, and
// Open starts no background goroutine to sync later.
func TestStoreAppendSyncsBeforeAck(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	defer s.Close()
	buf := make([]byte, 1<<20)
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "store.(*Store).") {
			t.Fatalf("Open left a goroutine running in the store:\n%s", g)
		}
	}
	seg := injectFaults(s)
	for i := 1; i <= 5; i++ {
		seg.ops = nil
		idx, err := s.Append(1, []byte("acked"))
		if err != nil || idx != uint64(i) {
			t.Fatalf("append %d: idx=%d err=%v", i, idx, err)
		}
		if want := []string{"write", "sync"}; !slices.Equal(seg.ops, want) {
			t.Fatalf("append %d did %v before returning, want %v", i, seg.ops, want)
		}
	}
}

// TestStoreTornShortWriteStopsLog: a write that stores half a frame
// stops the log, so no later frame lands behind the torn one; the next
// Open truncates it as a torn tail and the log continues.
func TestStoreTornShortWriteStopsLog(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	if idx, err := s.Append(1, []byte("first")); err != nil || idx != 1 {
		t.Fatalf("append 1: idx=%d err=%v", idx, err)
	}
	seg := injectFaults(s)
	seg.shortNext = true
	if _, err := s.Append(1, []byte("torn by a short write")); err == nil {
		t.Fatal("short write acknowledged")
	}
	idx, err := s.Append(1, []byte("behind the torn frame"))
	if err == nil || !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("append after a short write: idx=%d err=%v, want a refusal naming the short write", idx, err)
	}
	if err := s.SaveSnapshot([]byte("S")); err == nil || !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("snapshot after a short write: err=%v, want a refusal naming the short write", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	tail := s2.Tail()
	if len(tail) != 1 || string(tail[0].Payload) != "first" {
		t.Fatalf("recovered %+v, want record 1 only", tail)
	}
	if s2.Recovery().TornBytes <= 0 {
		t.Fatalf("recovery = %+v, want the half frame truncated as torn", s2.Recovery())
	}
	if idx, err := s2.Append(1, []byte("after reopen")); err != nil || idx != 2 {
		t.Fatalf("append after reopen: idx=%d err=%v, want 2", idx, err)
	}
}

// TestStoreCrashFailedSyncStopsLog: a failed fsync is not retried —
// Linux may have dropped the dirty pages — so it stops the log like a
// failed write, and a reopen continues from what reached the file.
func TestStoreCrashFailedSyncStopsLog(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	appendN(t, s, 1, 2, "ok")
	seg := injectFaults(s)
	seg.failSync = true
	if _, err := s.Append(1, []byte("unsynced")); err == nil {
		t.Fatal("append with a failed fsync acknowledged")
	}
	seg.failSync = false
	seg.ops = nil
	if _, err := s.Append(1, []byte("next")); err == nil || !strings.Contains(err.Error(), "injected fsync failure") {
		t.Fatalf("append after a failed fsync: err=%v, want a refusal naming the fsync failure", err)
	}
	if len(seg.ops) != 0 {
		t.Fatalf("refused append touched the segment: %v", seg.ops)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	n := len(s2.Tail())
	if n < 2 {
		t.Fatalf("recovered %d records, want the 2 acknowledged ones", n)
	}
	if idx, err := s2.Append(1, []byte("after reopen")); err != nil || idx != uint64(n+1) {
		t.Fatalf("append after reopen: idx=%d err=%v, want %d", idx, err, n+1)
	}
}
