package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestAuto: the worker count every role fans out over is GOMAXPROCS, read
// at the call, so setting it changes the next fan-out.
func TestAuto(t *testing.T) {
	if got := Auto(); got != runtime.GOMAXPROCS(0) || got < 1 {
		t.Errorf("Auto() = %d, want GOMAXPROCS=%d", got, runtime.GOMAXPROCS(0))
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if got := Auto(); got != 1 {
		t.Errorf("Auto() at GOMAXPROCS=1 = %d, want 1", got)
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

// TestFirst: the lowest passing index at every pool size, whatever
// order the workers finish in; -1 when nothing passes or n <= 0; a
// serial pool stops at the first pass.
func TestFirst(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 8} {
		for _, tc := range []struct {
			n    int
			pass []int
			want int
		}{
			{0, nil, -1}, {-2, nil, -1}, {5, nil, -1}, {1, []int{0}, 0},
			{40, []int{17}, 17}, {40, []int{31, 5, 6, 39}, 5}, {40, []int{39}, 39},
		} {
			pass := map[int]bool{}
			for _, i := range tc.pass {
				pass[i] = true
			}
			var calls atomic.Int64
			got := First(workers, tc.n, func(i int) bool {
				calls.Add(1)
				// Later indices answer sooner, so a worker holding a
				// higher pass often reports before a lower one.
				time.Sleep(time.Duration(tc.n-i) * 20 * time.Microsecond)
				return pass[i]
			})
			if got != tc.want {
				t.Errorf("workers=%d n=%d pass=%v: First = %d, want %d", workers, tc.n, tc.pass, got, tc.want)
			}
			if workers <= 1 && tc.want >= 0 && calls.Load() != int64(tc.want+1) {
				t.Errorf("workers=%d: %d calls for an answer at %d, want %d", workers, calls.Load(), tc.want, tc.want+1)
			}
		}
	}
}
