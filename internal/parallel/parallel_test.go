package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestResolve(t *testing.T) {
	if got := Resolve(0); got != 1 {
		t.Errorf("Resolve(0) = %d, want 1 (serial default)", got)
	}
	if got := Resolve(7); got != 7 {
		t.Errorf("Resolve(7) = %d, want 7", got)
	}
	if got := Resolve(-1); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Resolve(-1) = %d, want GOMAXPROCS=%d", got, runtime.GOMAXPROCS(0))
	}
	if Auto() < 1 {
		t.Errorf("Auto() = %d, want >= 1", Auto())
	}
}

func TestForEmptyAndSmall(t *testing.T) {
	if err := For(4, 0, func(int) error { t.Fatal("fn called for n=0"); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := For(4, -3, func(int) error { t.Fatal("fn called for n<0"); return nil }); err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	if err := For(16, 1, func(i int) error { calls.Add(1); return nil }); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Errorf("n=1: %d calls, want 1", calls.Load())
	}
}

// TestForCoversEveryIndexForAllPoolSizes checks pool sizing 1..N: every
// index is visited exactly once and results land in their own slot,
// matching the serial reference bit-for-bit.
func TestForCoversEveryIndexForAllPoolSizes(t *testing.T) {
	const n = 1000
	want := make([]int, n)
	for i := range want {
		want[i] = i * i
	}
	for workers := 1; workers <= 9; workers++ {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			got := make([]int, n)
			var calls atomic.Int64
			err := For(workers, n, func(i int) error {
				calls.Add(1)
				got[i] = i * i
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if calls.Load() != n {
				t.Fatalf("%d calls, want %d", calls.Load(), n)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("slot %d = %d, want %d", i, got[i], want[i])
				}
			}
		})
	}
}

func TestForSerialOrder(t *testing.T) {
	// workers <= 1 must preserve strict index order — the contract the
	// bit-for-bit serial crypto path depends on.
	var seen []int
	err := For(1, 50, func(i int) error {
		seen = append(seen, i)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range seen {
		if v != i {
			t.Fatalf("serial order broken at position %d: got %d", i, v)
		}
	}
}

func TestForErrorPropagation(t *testing.T) {
	sentinel := errors.New("boom")
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			err := For(workers, 100, func(i int) error {
				if i == 37 {
					return fmt.Errorf("index %d: %w", i, sentinel)
				}
				return nil
			})
			if !errors.Is(err, sentinel) {
				t.Fatalf("err = %v, want wrapped sentinel", err)
			}
		})
	}
}

func TestForFirstErrorCancels(t *testing.T) {
	// An early error must stop the pool from visiting the whole index
	// space: with the error at index 0 and chunked scheduling, far
	// fewer than n indices may run.
	const n = 100_000
	var calls atomic.Int64
	err := For(4, n, func(i int) error {
		calls.Add(1)
		if i == 0 {
			return errors.New("early failure")
		}
		return nil
	})
	if err == nil {
		t.Fatal("error swallowed")
	}
	if c := calls.Load(); c >= n {
		t.Fatalf("cancellation ineffective: %d of %d indices ran", c, n)
	}
}

func TestForSerialStopsImmediately(t *testing.T) {
	var calls int
	err := For(1, 100, func(i int) error {
		calls++
		if i == 3 {
			return errors.New("stop")
		}
		return nil
	})
	if err == nil || calls != 4 {
		t.Fatalf("serial path ran %d calls (err %v), want exactly 4", calls, err)
	}
}

// TestForChunks: the ranges tile [0, n) exactly once, there are never
// more of them than workers (nor than indices), a serial pool gets the
// whole range in one call on the calling goroutine, and an error comes
// back.
func TestForChunks(t *testing.T) {
	for _, tc := range []struct{ workers, n, ranges int }{
		{0, 5, 1}, {1, 5, 1}, {2, 5, 2}, {4, 12, 4}, {8, 3, 3}, {3, 0, 0}, {2, -1, 0},
	} {
		var (
			mu     sync.Mutex
			ranges int
			seen   = make([]int, max(tc.n, 0))
		)
		err := ForChunks(tc.workers, tc.n, func(lo, hi int) error {
			mu.Lock()
			defer mu.Unlock()
			if lo >= hi {
				t.Errorf("workers=%d n=%d: empty range [%d, %d)", tc.workers, tc.n, lo, hi)
			}
			ranges++
			for i := lo; i < hi; i++ {
				seen[i]++
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if ranges != tc.ranges {
			t.Errorf("workers=%d n=%d: %d ranges, want %d", tc.workers, tc.n, ranges, tc.ranges)
		}
		for i, c := range seen {
			if c != 1 {
				t.Errorf("workers=%d n=%d: index %d visited %d times", tc.workers, tc.n, i, c)
			}
		}
	}
	sentinel := errors.New("boom")
	err := ForChunks(3, 9, func(lo, hi int) error {
		if lo <= 4 && 4 < hi {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the chunk's error", err)
	}
}
