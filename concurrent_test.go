package segdb

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"segdb/internal/tiger"
)

// stressSpec is a small county (~1k segments): large enough that every
// structure has real depth, small enough that six kinds × two replicas
// build quickly under the race detector.
var stressSpec = tiger.Spec{
	Name: "stress", Kind: tiger.Rural, Seed: 777,
	Lattice: 8, SubdivMin: 4, SubdivMax: 8, DeleteFrac: 0.1,
}

func stressMap(t testing.TB) *MapData {
	t.Helper()
	m, err := tiger.Generate(stressSpec)
	if err != nil {
		t.Fatal(err)
	}
	return &MapData{Name: stressSpec.Name, Class: "rural", Segments: m.Segments}
}

// stressOp is one query of the mixed workload. kind: 0 window, 1 nearest,
// 2 enclosing polygon.
type stressOp struct {
	kind int
	rect Rect
	pt   Point
}

func stressOps(n int, seed int64) []stressOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]stressOp, n)
	for i := range ops {
		p := Pt(rng.Int31n(WorldSize), rng.Int31n(WorldSize))
		switch i % 3 {
		case 0:
			w := rng.Int31n(WorldSize/8) + 16
			ops[i] = stressOp{kind: 0, rect: RectOf(p.X, p.Y, min32(p.X+w, WorldSize-1), min32(p.Y+w, WorldSize-1))}
		case 1:
			ops[i] = stressOp{kind: 1, pt: p}
		case 2:
			ops[i] = stressOp{kind: 2, pt: p}
		}
	}
	return ops
}

func min32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}

// runStressOp executes one op via the v2 query API and summarizes its
// result as a string, so concurrent and sequential runs can be compared
// op-for-op; the per-query stats come back alongside so the test can
// reconcile their sum against the global counters.
func runStressOp(db *DB, op stressOp) (string, QueryStats, error) {
	ctx := context.Background()
	switch op.kind {
	case 0:
		var ids []SegmentID
		st, err := db.WindowCtx(ctx, op.rect, func(id SegmentID, _ Segment) bool {
			ids = append(ids, id)
			return true
		})
		if err != nil {
			return "", st, err
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		return fmt.Sprintf("window:%v", ids), st, nil
	case 1:
		res, st, err := db.NearestCtx(ctx, op.pt)
		if err != nil {
			return "", st, err
		}
		return fmt.Sprintf("nearest:%v/%v/%v", res.Found, res.ID, res.DistSq), st, nil
	default:
		poly, st, err := db.EnclosingPolygonCtx(ctx, op.pt)
		if err != nil {
			return "", st, err
		}
		return fmt.Sprintf("polygon:%d", poly.Size()), st, nil
	}
}

// TestConcurrentQueryStress runs a mixed Window/Nearest/EnclosingPolygon
// workload from 8 goroutines against each index kind and checks that (a)
// every query returns exactly the sequential answer and (b) the
// interleaving-independent totals — segment comparisons, bounding box
// computations, and buffer-pool page requests — match a sequential replay
// on an identically built database. (The hit/miss split of those page
// requests legitimately depends on scheduling and is not compared.)
func TestConcurrentQueryStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	m := stressMap(t)
	ops := stressOps(96, 4321)
	const workers = 8
	for _, k := range allKinds() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			t.Parallel()
			seqDB, err := Open(k, nil)
			if err != nil {
				t.Fatal(err)
			}
			conDB, err := Open(k, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := seqDB.Load(m); err != nil {
				t.Fatal(err)
			}
			if _, err := conDB.Load(m); err != nil {
				t.Fatal(err)
			}

			// Sequential replay.
			seqBase := seqDB.Metrics()
			want := make([]string, len(ops))
			for i, op := range ops {
				want[i], _, err = runStressOp(seqDB, op)
				if err != nil {
					t.Fatalf("sequential op %d: %v", i, err)
				}
			}
			seqDelta := seqDB.Metrics().Sub(seqBase)

			// Concurrent run: 8 goroutines claim ops from a shared cursor,
			// keeping each op's QueryStats for reconciliation below.
			conBase := conDB.Metrics()
			got := make([]string, len(ops))
			perQuery := make([]QueryStats, len(ops))
			var (
				next atomic.Int64
				wg   sync.WaitGroup
			)
			errs := make([]error, workers)
			for w := 0; w < workers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := int(next.Add(1)) - 1
						if i >= len(ops) {
							return
						}
						s, st, err := runStressOp(conDB, ops[i])
						if err != nil {
							errs[w] = fmt.Errorf("op %d: %w", i, err)
							return
						}
						got[i] = s
						perQuery[i] = st
					}
				}()
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			conDelta := conDB.Metrics().Sub(conBase)

			for i := range ops {
				if got[i] != want[i] {
					t.Errorf("op %d: concurrent %q, sequential %q", i, got[i], want[i])
				}
			}
			if conDelta.SegComps != seqDelta.SegComps {
				t.Errorf("segment comparisons: concurrent %d, sequential %d",
					conDelta.SegComps, seqDelta.SegComps)
			}
			if conDelta.NodeComps != seqDelta.NodeComps {
				t.Errorf("bbox computations: concurrent %d, sequential %d",
					conDelta.NodeComps, seqDelta.NodeComps)
			}
			if conDelta.PoolRequests != seqDelta.PoolRequests {
				t.Errorf("pool requests: concurrent %d, sequential %d",
					conDelta.PoolRequests, seqDelta.PoolRequests)
			}

			// Per-query attribution is exact: the sum of the 96 QueryStats
			// equals the global counter deltas of the concurrent run, for
			// every interleaving-independent total.
			var sum QueryStats
			for _, st := range perQuery {
				sum = sum.Add(st)
			}
			if sum.SegComps != conDelta.SegComps {
				t.Errorf("sum of per-query SegComps %d != global delta %d",
					sum.SegComps, conDelta.SegComps)
			}
			if sum.NodeComps != conDelta.NodeComps {
				t.Errorf("sum of per-query NodeComps %d != global delta %d",
					sum.NodeComps, conDelta.NodeComps)
			}
			if sum.PoolRequests != conDelta.PoolRequests {
				t.Errorf("sum of per-query PoolRequests %d != global delta %d",
					sum.PoolRequests, conDelta.PoolRequests)
			}
		})
	}
}

// TestConcurrentWindowsShareBTreeNodes runs four goroutines of random
// windows over the two kinds stored in a B+-tree, on a pool of 8 pages:
// frames are evicted constantly, so goroutines keep decoding the same page
// at once, publishing into the same slot, and reading nodes whose frame
// has since gone. Every answer must equal a linear scan of the map (and
// the race detector must stay quiet).
func TestConcurrentWindowsShareBTreeNodes(t *testing.T) {
	m := stressMap(t)
	const workers, perWorker = 4, 60
	for _, k := range []Kind{PMRQuadtree, UniformGrid} {
		for _, level := range []int{0, 1} {
			t.Run(fmt.Sprintf("%v/level%d", k, level), func(t *testing.T) {
				t.Parallel()
				db, err := Open(k, WithPoolPages(8), WithPageCompression(level))
				if err != nil {
					t.Fatal(err)
				}
				ids, err := db.AddBatch(m.Segments)
				if err != nil {
					t.Fatal(err)
				}
				live := make(map[SegmentID]Segment, len(ids))
				for i, id := range ids {
					live[id] = m.Segments[i]
				}
				errs := make([]error, workers)
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						rng := rand.New(rand.NewSource(int64(w)))
						for i := 0; i < perWorker && errs[w] == nil; i++ {
							x, y, side := rng.Int31n(WorldSize), rng.Int31n(WorldSize), rng.Int31n(WorldSize/4)+16
							r := RectOf(x, y, min(x+side, WorldSize-1), min(y+side, WorldSize-1))
							var got []SegmentID
							err := db.Window(r, func(id SegmentID, _ Segment) bool { got = append(got, id); return true })
							slices.Sort(got)
							if want := liveWindowIDs(live, r); err != nil || !sameIDs(got, want) {
								errs[w] = fmt.Errorf("window %v: %d ids, want %d (err %v)", r, len(got), len(want), err)
							}
						}
					}()
				}
				wg.Wait()
				for _, err := range errs {
					if err != nil {
						t.Error(err)
					}
				}
			})
		}
	}
}

// TestWindowBatch checks the batch answers every rectangle exactly as a
// lone Window does, in the same order; that a visitor stop ends the batch
// after exactly one call with a nil error; and that a context canceled
// from the first visited rectangle's visitor ends the batch with
// context.Canceled before any later rectangle is charged a page request.
func TestWindowBatch(t *testing.T) {
	m := stressMap(t)
	db, err := Open(RStarTree, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddBatch(m.Segments); err != nil {
		t.Fatal(err)
	}
	ops := stressOps(30, 99)
	var rects []Rect
	for _, op := range ops {
		if op.kind == 0 {
			rects = append(rects, op.rect)
		}
	}

	want := make([][]SegmentID, len(rects))
	for q, r := range rects {
		db.Window(r, func(id SegmentID, _ Segment) bool {
			want[q] = append(want[q], id)
			return true
		})
	}

	got := make([][]SegmentID, len(rects))
	if _, err := db.WindowBatchCtx(context.Background(), rects, func(q int, id SegmentID, _ Segment) bool {
		got[q] = append(got[q], id)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	for q := range rects {
		if !slices.Equal(got[q], want[q]) {
			t.Fatalf("query %d: got %v, want %v", q, got[q], want[q])
		}
	}

	calls := 0
	if _, err := db.WindowBatchCtx(context.Background(), rects, func(int, SegmentID, Segment) bool {
		calls++
		return false
	}); err != nil || calls != 1 {
		t.Fatalf("stopped batch: %d visits, err %v; want 1 visit, nil", calls, err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	first := -1
	stats, err := db.WindowBatchCtx(ctx, rects, func(q int, _ SegmentID, _ Segment) bool {
		if first < 0 {
			first = q
			cancel()
		}
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled batch returned %v, want context.Canceled", err)
	}
	for q := first + 1; q < len(stats); q++ {
		if stats[q].PoolRequests != 0 {
			t.Fatalf("query %d ran after cancellation: %+v", q, stats[q])
		}
	}

	// An empty batch is a no-op.
	if _, err := db.WindowBatchCtx(context.Background(), nil, nil); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentMetricsReaders checks Metrics() can be called while
// queries and a bulk merge (which swaps the index pool) are in flight,
// without tripping the race detector, and that no field of the
// snapshots it takes ever runs backwards.
func TestConcurrentMetricsReaders(t *testing.T) {
	m := stressMap(t)
	db, err := Open(PMRQuadtree, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Load(m); err != nil {
		t.Fatal(err)
	}
	stop, done := make(chan struct{}), make(chan struct{})
	var snaps atomic.Int64
	go func() {
		defer close(done)
		prev, backwards := db.Metrics(), false
		for {
			cur := db.Metrics()
			if !backwards && (cur.DiskAccesses < prev.DiskAccesses || cur.SegComps < prev.SegComps ||
				cur.NodeComps < prev.NodeComps || cur.PoolHits < prev.PoolHits || cur.PoolRequests < prev.PoolRequests) {
				backwards = true
				t.Errorf("Metrics ran backwards: %+v -> %+v", prev, cur)
			}
			prev = cur
			snaps.Add(1)
			select {
			case <-stop:
				return
			default:
				runtime.Gosched()
			}
		}
	}()
	// nextSnap waits until the reader has taken a snapshot after the call.
	nextSnap := func() {
		for n := snaps.Load(); snaps.Load() == n; {
			runtime.Gosched()
		}
	}
	for i := 0; i < 20; i++ {
		if _, _, err := db.NearestCtx(context.Background(), Pt(int32(i*700%WorldSize), 5000)); err != nil {
			t.Fatal(err)
		}
		if i == 10 {
			nextSnap()
			if _, err := db.AddBatch(m.Segments[:50]); err != nil {
				t.Fatal(err)
			}
			nextSnap()
		}
	}
	close(stop)
	<-done
	mtr := db.Metrics()
	if mtr.PoolRequests < mtr.PoolHits {
		t.Fatalf("requests %d < hits %d", mtr.PoolRequests, mtr.PoolHits)
	}
	if mtr.HitRatio() < 0 || mtr.HitRatio() > 1 {
		t.Fatalf("hit ratio %v out of range", mtr.HitRatio())
	}
}
