package store

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestKeeperThresholdSnapshot(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var exports atomic.Int64
	k := NewKeeper(s, func() ([]byte, error) {
		exports.Add(1)
		return []byte("state"), nil
	}, 0, 3)
	k.Start(func(err error) { t.Error(err) })
	defer k.Stop()

	for i := 0; i < 3; i++ {
		if _, err := k.Append(1, []byte("r")); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().SnapshotIndex != 3 {
		if time.Now().After(deadline) {
			t.Fatalf("no snapshot after threshold; stats %+v", s.Stats())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if exports.Load() == 0 {
		t.Fatal("snapshot taken without calling the exporter")
	}
	if s.Stats().RecordsSinceSnapshot != 0 {
		t.Fatalf("records not compacted: %+v", s.Stats())
	}
}

func TestKeeperAppendsDuringSnapshotNotLost(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The exporter reports how many records it has "seen"; concurrent
	// appends bump the counter through the keeper. After the snapshot
	// plus the surviving WAL tail, no acknowledged append may vanish.
	var mu sync.Mutex
	seen := 0
	k := NewKeeper(s, func() ([]byte, error) {
		mu.Lock()
		defer mu.Unlock()
		return []byte(fmt.Sprintf("%d", seen)), nil
	}, 0, 0)

	var wg sync.WaitGroup
	appended := make([]int, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				mu.Lock()
				seen++
				mu.Unlock()
				if _, err := k.Append(1, []byte("r")); err != nil {
					t.Error(err)
					return
				}
				appended[g]++
			}
		}(g)
	}
	for i := 0; i < 5; i++ {
		if err := k.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var inSnapshot int
	if _, err := fmt.Sscanf(string(r.SnapshotData()), "%d", &inSnapshot); err != nil {
		t.Fatalf("snapshot payload %q: %v", r.SnapshotData(), err)
	}
	total := 0
	for _, n := range appended {
		total += n
	}
	// Every acknowledged append must be covered by the snapshot or
	// replayed from the tail. (Snapshot may cover more than its counter
	// says — an append between counter bump and WAL write replays
	// idempotently — but never fewer.)
	if inSnapshot+r.Recovery().TailRecords < total {
		t.Fatalf("recovered %d (snapshot) + %d (tail) < %d appended",
			inSnapshot, r.Recovery().TailRecords, total)
	}
}

func TestKeeperStopWithoutStart(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	k := NewKeeper(s, func() ([]byte, error) { return nil, nil }, 0, 0)
	k.Start(nil) // both triggers disabled: no-op
	k.Stop()
}
