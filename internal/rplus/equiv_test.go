package rplus

import (
	"container/heap"
	"context"
	"math/rand"
	"sync/atomic"
	"testing"

	"segdb/internal/core"
	"segdb/internal/geom"
	"segdb/internal/obs"
	"segdb/internal/rpage"
	"segdb/internal/seg"
	"segdb/internal/store"
)

// Scalar reference ports of the pre-kernel R+-tree traversals (per-entry
// geom.Rect predicates over an array-of-entries decode, including the
// duplicate suppression an R+-tree needs), property-tested against the
// optimized SoA paths: identical visit sequences, identical per-query
// QueryStats.

func refReadNode(t *Tree, id store.PageID, o *obs.Op) (*rpage.Node, error) {
	data, err := t.Pool.GetObs(id, o)
	if err != nil {
		return nil, err
	}
	o.NodeVisit(uint32(id))
	n := new(rpage.Node)
	if err := rpage.ReadInto(data, n); err != nil {
		t.Pool.Unpin(id, false)
		return nil, err
	}
	t.Pool.Unpin(id, false)
	return n, nil
}

func refWindow(t *Tree, id store.PageID, r geom.Rect, seen map[seg.ID]struct{}, visit func(seg.ID, geom.Segment) bool, o *obs.Op, examined *uint64) (bool, error) {
	n, err := refReadNode(t, id, o)
	if err != nil {
		if store.IsUnavailable(err) {
			return true, nil
		}
		return false, err
	}
	for _, e := range n.Entries {
		*examined++
		if !e.Rect.Intersects(r) {
			continue
		}
		if n.Leaf {
			sid := seg.ID(e.Ptr)
			if _, dup := seen[sid]; dup {
				continue
			}
			s, err := t.Segs.GetObs(sid, o)
			if err != nil {
				if store.IsUnavailable(err) {
					continue
				}
				return false, err
			}
			if !r.IntersectsSegment(s) {
				continue
			}
			seen[sid] = struct{}{}
			if !visit(sid, s) {
				return false, nil
			}
			continue
		}
		cont, err := refWindow(t, store.PageID(e.Ptr), r, seen, visit, o, examined)
		if err != nil || !cont {
			return cont, err
		}
	}
	return true, nil
}

func refWindowObs(t *Tree, r geom.Rect, visit func(seg.ID, geom.Segment) bool, o *obs.Op) error {
	seen := make(map[seg.ID]struct{})
	var examined uint64
	_, err := refWindow(t, t.Root, r, seen, visit, o, &examined)
	o.NodeComps(examined)
	return err
}

// pqItem and refPQ are the reference's own priority queue, on
// container/heap, in the production queue's order (internal/knn):
// distance, then push order, so pop order (and with it page access order)
// must agree.
type pqItem struct {
	seq    int64
	distSq float64
	isSeg  bool
	ptr    uint32
	s      geom.Segment
}

type refPQ []pqItem

func (q refPQ) Len() int { return len(q) }
func (q refPQ) Less(i, j int) bool {
	return q[i].distSq < q[j].distSq || q[i].distSq == q[j].distSq && q[i].seq < q[j].seq
}
func (q refPQ) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refPQ) Push(x any)   { *q = append(*q, x.(pqItem)) }
func (q *refPQ) Pop() any {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

var pqSeq atomic.Int64

func pqPush(q *[]pqItem, it pqItem) {
	it.seq = pqSeq.Add(1)
	heap.Push((*refPQ)(q), it)
}
func pqPop(q *[]pqItem) pqItem { return heap.Pop((*refPQ)(q)).(pqItem) }

func refNearestK(t *Tree, p geom.Point, k int, o *obs.Op) ([]core.NearestResult, error) {
	var dst []core.NearestResult
	var examined uint64
	defer func() { o.NodeComps(examined) }()
	seen := make(map[seg.ID]struct{})
	var q []pqItem
	pqPush(&q, pqItem{distSq: 0, ptr: uint32(t.Root)})
	for len(q) > 0 && len(dst) < k {
		it := pqPop(&q)
		if it.isSeg {
			dst = append(dst, core.NearestResult{ID: seg.ID(it.ptr), Seg: it.s, DistSq: it.distSq, Found: true})
			continue
		}
		n, err := refReadNode(t, store.PageID(it.ptr), o)
		if err != nil {
			if store.IsUnavailable(err) {
				continue
			}
			return dst, err
		}
		for _, e := range n.Entries {
			examined++
			if n.Leaf {
				sid := seg.ID(e.Ptr)
				if _, dup := seen[sid]; dup {
					continue
				}
				seen[sid] = struct{}{}
				s, err := t.Segs.GetObs(sid, o)
				if err != nil {
					if store.IsUnavailable(err) {
						continue
					}
					return dst, err
				}
				pqPush(&q, pqItem{distSq: geom.DistSqPointSegment(p, s), isSeg: true, ptr: e.Ptr, s: s})
				continue
			}
			pqPush(&q, pqItem{distSq: e.Rect.DistSqToPoint(p), ptr: e.Ptr})
		}
	}
	return dst, nil
}

type visitRec struct {
	id seg.ID
	s  geom.Segment
}

func dropCaches(t *testing.T, e *testEnv) {
	t.Helper()
	if err := e.tree.Pool.DropAll(); err != nil {
		t.Fatal(err)
	}
	if err := e.table.DropCache(); err != nil {
		t.Fatal(err)
	}
}

func statsEq(a, b obs.Stats) bool {
	a.Wall, b.Wall = 0, 0
	return a == b
}

func newOp() *obs.Op { return obs.Begin(context.Background(), nil, obs.QueryInfo{}) }

func randWindow(rng *rand.Rand) geom.Rect {
	x1, y1 := int32(rng.Intn(geom.WorldSize)), int32(rng.Intn(geom.WorldSize))
	w := int32(rng.Intn(2500)) + 1
	if rng.Intn(5) == 0 {
		w = int32(rng.Intn(geom.WorldSize))
	}
	return geom.Rect{
		Min: geom.Pt(x1, y1),
		Max: geom.Pt(clamp(x1+w, 0, geom.WorldSize-1), clamp(y1+w, 0, geom.WorldSize-1)),
	}
}

func TestWindowMatchesScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	e := newEnv(t, 512, 8, DefaultConfig())
	for _, s := range randSegs(rng, 600, 300) {
		e.add(t, s)
	}
	queries := make([]geom.Rect, 0, 50)
	for i := 0; i < 47; i++ {
		queries = append(queries, randWindow(rng))
	}
	queries = append(queries,
		geom.World(),
		geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(0, 0)},
		geom.Rect{Min: geom.Pt(0, 9000), Max: geom.Pt(16383, 9000)}, // horizontal band
	)
	for qi, r := range queries {
		limit := -1
		if qi%3 == 2 {
			limit = qi % 5
		}
		run := func(window func(geom.Rect, func(seg.ID, geom.Segment) bool, *obs.Op) error) ([]visitRec, obs.Stats) {
			dropCaches(t, e)
			var got []visitRec
			left := limit
			o := newOp()
			err := window(r, func(id seg.ID, s geom.Segment) bool {
				got = append(got, visitRec{id, s})
				if left > 0 {
					left--
				}
				return left != 0
			}, o)
			if err != nil {
				t.Fatalf("query %d: %v", qi, err)
			}
			return got, o.Finish(nil)
		}
		optVisits, optStats := run(e.tree.WindowObs)
		refVisits, refStats := run(func(r geom.Rect, v func(seg.ID, geom.Segment) bool, o *obs.Op) error {
			return refWindowObs(e.tree, r, v, o)
		})
		if len(optVisits) != len(refVisits) {
			t.Fatalf("query %d (%v): optimized visited %d, reference %d", qi, r, len(optVisits), len(refVisits))
		}
		for i := range optVisits {
			if optVisits[i] != refVisits[i] {
				t.Fatalf("query %d visit %d: optimized %+v, reference %+v", qi, i, optVisits[i], refVisits[i])
			}
		}
		if !statsEq(optStats, refStats) {
			t.Fatalf("query %d (%v): stats diverge\noptimized: %+v\nreference: %+v", qi, r, optStats, refStats)
		}
	}
}

func TestNearestKMatchesScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(223))
	e := newEnv(t, 512, 8, DefaultConfig())
	for _, s := range randSegs(rng, 450, 250) {
		e.add(t, s)
	}
	for qi := 0; qi < 36; qi++ {
		p := geom.Pt(int32(rng.Intn(geom.WorldSize)), int32(rng.Intn(geom.WorldSize)))
		k := []int{1, 4, 12, 50}[qi%4]

		dropCaches(t, e)
		oOpt := newOp()
		optRes, err := e.tree.NearestKAppendObs(p, k, nil, oOpt)
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		optStats := oOpt.Finish(nil)

		dropCaches(t, e)
		oRef := newOp()
		refRes, err := refNearestK(e.tree, p, k, oRef)
		if err != nil {
			t.Fatalf("query %d ref: %v", qi, err)
		}
		refStats := oRef.Finish(nil)

		if len(optRes) != len(refRes) {
			t.Fatalf("query %d (p=%v k=%d): optimized %d results, reference %d", qi, p, k, len(optRes), len(refRes))
		}
		for i := range optRes {
			if optRes[i] != refRes[i] {
				t.Fatalf("query %d result %d: optimized %+v, reference %+v", qi, i, optRes[i], refRes[i])
			}
		}
		if !statsEq(optStats, refStats) {
			t.Fatalf("query %d (p=%v k=%d): stats diverge\noptimized: %+v\nreference: %+v", qi, p, k, optStats, refStats)
		}
	}
}
