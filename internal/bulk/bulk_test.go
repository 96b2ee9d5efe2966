package bulk

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// cmpPair is a strict total order on (key, id) pairs.
type pair struct {
	key uint64
	id  int
}

func cmpPair(a, b pair) int {
	switch {
	case a.key < b.key:
		return -1
	case a.key > b.key:
		return 1
	case a.id < b.id:
		return -1
	case a.id > b.id:
		return 1
	}
	return 0
}

func TestSortMatchesSequentialOracle(t *testing.T) {
	for _, n := range []int{0, 1, 2, 100, minParallelSort - 1, minParallelSort, 3*minParallelSort + 17} {
		rng := rand.New(rand.NewSource(int64(n)))
		s := make([]pair, n)
		for i := range s {
			s[i] = pair{key: uint64(rng.Intn(50)), id: i} // heavy ties
		}
		want := slices.Clone(s)
		slices.SortFunc(want, cmpPair)
		Sort(s, cmpPair)
		if !slices.Equal(s, want) {
			t.Fatalf("n=%d: parallel sort differs from oracle", n)
		}
	}
}

func TestSortDeterministicAcrossGOMAXPROCS(t *testing.T) {
	n := 2*minParallelSort + 931
	rng := rand.New(rand.NewSource(42))
	base := make([]pair, n)
	for i := range base {
		base[i] = pair{key: uint64(rng.Intn(7)), id: i}
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var first []pair
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		s := slices.Clone(base)
		Sort(s, cmpPair)
		if first == nil {
			first = s
			continue
		}
		if !slices.Equal(s, first) {
			t.Fatalf("GOMAXPROCS=%d: sort output differs", procs)
		}
	}
}

func TestParallelCoversEveryIndex(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000} {
		hits := make([]atomic.Int32, n)
		Parallel(n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("n=%d: index %d ran %d times", n, i, hits[i].Load())
			}
		}
	}
}

// TestParallelCoversRange checks every index in [0, n) runs exactly once
// with real parallelism: eight workers on one cursor.
func TestParallelCoversRange(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	const n = 1000
	var calls [n]atomic.Int64
	Parallel(n, func(i int) { calls[i].Add(1) })
	for i := range calls {
		if c := calls[i].Load(); c != 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
	}
}

// TestParallelEmpty checks n == 0 never calls f, whatever the worker
// count.
func TestParallelEmpty(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 8} {
		runtime.GOMAXPROCS(procs)
		Parallel(0, func(int) { t.Fatal("f called for empty range") })
	}
}

// TestParallelMoreWorkersThanItems checks that with more processors than
// items every index still runs exactly once.
func TestParallelMoreWorkersThanItems(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(64))
	var calls [3]atomic.Int64
	Parallel(len(calls), func(i int) { calls[i].Add(1) })
	for i := range calls {
		if n := calls[i].Load(); n != 1 {
			t.Errorf("index %d ran %d times", i, n)
		}
	}
}

func TestGateRunsEverything(t *testing.T) {
	g := NewGate()
	var wg sync.WaitGroup
	var count atomic.Int32
	var launch func(depth int)
	launch = func(depth int) {
		if depth == 0 {
			count.Add(1)
			return
		}
		var inner sync.WaitGroup
		g.Run(&inner, func() { launch(depth - 1) })
		launch(depth - 1)
		inner.Wait()
	}
	g.Run(&wg, func() { launch(10) })
	wg.Wait()
	if count.Load() != 1<<10 {
		t.Fatalf("ran %d leaves, want %d", count.Load(), 1<<10)
	}
}
