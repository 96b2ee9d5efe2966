package segdb

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"segdb/internal/bulk"
)

func TestNormalizeParallelism(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ in, want int }{
		{0, procs},
		{-1, procs},
		{-100, procs},
		{1, 1},
		{7, 7},
	} {
		if got := normalizeParallelism(tc.in); got != tc.want {
			t.Errorf("normalizeParallelism(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestParallelRangeEmpty(t *testing.T) {
	// n == 0 must return nil without ever calling work, at any worker
	// count (workers is clamped to n, taking the sequential path).
	for _, workers := range []int{0, 1, 8} {
		if err := bulk.ParallelRange(0, workers, func(int) error {
			t.Fatal("work called for empty range")
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
}

func TestParallelRangeMoreWorkersThanItems(t *testing.T) {
	// workers > n: every index still runs exactly once.
	var calls [3]atomic.Int64
	if err := bulk.ParallelRange(len(calls), 64, func(i int) error {
		calls[i].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range calls {
		if n := calls[i].Load(); n != 1 {
			t.Errorf("index %d ran %d times", i, n)
		}
	}
}

func TestParallelRangeErrorShortCircuit(t *testing.T) {
	boom := errors.New("boom")

	// Sequential path: the error at index 3 stops the range there.
	var ran []int
	err := bulk.ParallelRange(100, 1, func(i int) error {
		ran = append(ran, i)
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	if len(ran) != 4 {
		t.Fatalf("sequential range ran %v after error at 3", ran)
	}

	// Parallel path: the first error is returned and the remaining range
	// is abandoned (in-flight calls may finish, but nowhere near all 10k).
	var count atomic.Int64
	err = bulk.ParallelRange(10000, 4, func(i int) error {
		count.Add(1)
		if i == 0 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	if n := count.Load(); n == 10000 {
		t.Fatalf("error did not short-circuit: all %d items ran", n)
	}
}

func TestParallelRangeCoversRange(t *testing.T) {
	// Every index in [0, n) runs exactly once with real parallelism.
	const n = 1000
	var calls [n]atomic.Int64
	if err := bulk.ParallelRange(n, 8, func(i int) error {
		calls[i].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range calls {
		if c := calls[i].Load(); c != 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
	}
}
