package pmr

import (
	"math/rand"
	"testing"

	"segdb/internal/core"
	"segdb/internal/geom"
	"segdb/internal/seg"
	"segdb/internal/store"
)

type pairKey struct{ a, b seg.ID }

func bruteForcePairs(as, bs []geom.Segment) map[pairKey]bool {
	out := map[pairKey]bool{}
	for i, sa := range as {
		for j, sb := range bs {
			if geom.SegmentsIntersect(sa, sb) {
				out[pairKey{seg.ID(i), seg.ID(j)}] = true
			}
		}
	}
	return out
}

func buildPMR(t *testing.T, segs []geom.Segment, cfg Config) *Tree {
	t.Helper()
	table := seg.NewTable(1024, 16)
	tree, err := New(store.NewPool(store.NewDisk(1024), 16), table, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range segs {
		id, err := table.Append(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := tree.Insert(id, nil); err != nil {
			t.Fatal(err)
		}
	}
	return tree
}

func TestJoinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	// Two overlapping road-like maps (clustered so intersections exist).
	mkSegs := func(n int, seed int64) []geom.Segment {
		r := rand.New(rand.NewSource(seed))
		out := make([]geom.Segment, n)
		for i := range out {
			x := int32(2000 + r.Intn(4000))
			y := int32(2000 + r.Intn(4000))
			out[i] = geom.Seg(x, y,
				clamp(x+int32(r.Intn(801))-400, 0, geom.WorldSize-1),
				clamp(y+int32(r.Intn(801))-400, 0, geom.WorldSize-1))
		}
		return out
	}
	as := mkSegs(400, 1)
	bs := mkSegs(400, 2)
	want := bruteForcePairs(as, bs)
	if len(want) == 0 {
		t.Fatal("test data has no intersecting pairs")
	}
	ta := buildPMR(t, as, DefaultConfig())
	tb := buildPMR(t, bs, DefaultConfig())

	got := map[pairKey]bool{}
	err := JoinObs(ta, tb, func(ia, ib seg.ID, sa, sb geom.Segment) bool {
		pk := pairKey{ia, ib}
		if got[pk] {
			t.Fatalf("pair (%d,%d) reported twice", ia, ib)
		}
		got[pk] = true
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("join found %d pairs, brute force %d", len(got), len(want))
	}
	for pk := range want {
		if !got[pk] {
			t.Fatalf("missing pair %v", pk)
		}
	}
	_ = rng
}

func TestJoinAgainstNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(112))
	as := randSegs(rng, 300, 500)
	bs := randSegs(rng, 300, 500)
	ta := buildPMR(t, as, DefaultConfig())
	tb := buildPMR(t, bs, DefaultConfig())

	merge := map[pairKey]bool{}
	if err := JoinObs(ta, tb, func(ia, ib seg.ID, _, _ geom.Segment) bool {
		merge[pairKey{ia, ib}] = true
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
	nested := map[pairKey]bool{}
	if err := core.JoinNestedLoopObs(ta, tb, func(ia, ib seg.ID, _, _ geom.Segment) bool {
		nested[pairKey{ia, ib}] = true
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
	if len(merge) != len(nested) {
		t.Fatalf("merge join %d pairs, nested loop %d", len(merge), len(nested))
	}
	for pk := range nested {
		if !merge[pk] {
			t.Fatalf("merge join missing %v", pk)
		}
	}
}

func TestJoinEarlyStop(t *testing.T) {
	segs := []geom.Segment{geom.Seg(0, 0, 100, 100), geom.Seg(0, 100, 100, 0)}
	ta := buildPMR(t, segs, DefaultConfig())
	tb := buildPMR(t, segs, DefaultConfig())
	calls := 0
	if err := JoinObs(ta, tb, func(seg.ID, seg.ID, geom.Segment, geom.Segment) bool {
		calls++
		return false
	}, nil); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("visit called %d times after stop", calls)
	}
}

func TestJoinEmptySides(t *testing.T) {
	full := buildPMR(t, []geom.Segment{geom.Seg(1, 1, 50, 50)}, DefaultConfig())
	empty := buildPMR(t, nil, DefaultConfig())
	called := false
	if err := JoinObs(full, empty, func(seg.ID, seg.ID, geom.Segment, geom.Segment) bool {
		called = true
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Error("join with empty side produced pairs")
	}
	if err := JoinObs(empty, empty, func(seg.ID, seg.ID, geom.Segment, geom.Segment) bool {
		called = true
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// The §7 claim: the block-aligned merge join reads each structure
// sequentially, while the nested-loop join re-probes the inner index per
// outer segment — far more disk accesses.
func TestJoinDiskAdvantage(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	as := randSegs(rng, 2000, 200)
	bs := randSegs(rng, 2000, 200)
	ta := buildPMR(t, as, DefaultConfig())
	tb := buildPMR(t, bs, DefaultConfig())

	cost := func(f func() error) uint64 {
		ta.DropCache()
		tb.DropCache()
		before := ta.DiskStats().Accesses() + tb.DiskStats().Accesses()
		if err := f(); err != nil {
			t.Fatal(err)
		}
		return ta.DiskStats().Accesses() + tb.DiskStats().Accesses() - before
	}
	sink := func(seg.ID, seg.ID, geom.Segment, geom.Segment) bool { return true }
	mergeCost := cost(func() error { return JoinObs(ta, tb, sink, nil) })
	nestedCost := cost(func() error { return core.JoinNestedLoopObs(ta, tb, sink, nil) })
	t.Logf("merge join: %d accesses; nested loop: %d", mergeCost, nestedCost)
	if mergeCost*3 > nestedCost {
		t.Errorf("merge join (%d) should be far cheaper than nested loop (%d)", mergeCost, nestedCost)
	}
}
