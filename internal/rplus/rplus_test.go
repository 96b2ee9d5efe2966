package rplus

import (
	"math"
	"math/rand"
	"testing"

	"segdb/internal/core"
	"segdb/internal/geom"
	"segdb/internal/rpage"
	"segdb/internal/seg"
	"segdb/internal/store"
)

type testEnv struct {
	tree  *Tree
	table *seg.Table
	segs  []geom.Segment
}

func newEnv(t *testing.T, pageSize, poolPages int, cfg Config) *testEnv {
	t.Helper()
	table := seg.NewTable(pageSize, poolPages)
	tree, err := New(store.NewPool(store.NewDisk(pageSize), poolPages), table, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &testEnv{tree: tree, table: table}
}

func (e *testEnv) add(t *testing.T, s geom.Segment) seg.ID {
	t.Helper()
	id, err := e.table.Append(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.tree.Insert(id); err != nil {
		t.Fatal(err)
	}
	e.segs = append(e.segs, s)
	return id
}

func randSegs(rng *rand.Rand, n int, maxLen int32) []geom.Segment {
	out := make([]geom.Segment, n)
	for i := range out {
		p := geom.Pt(int32(rng.Intn(geom.WorldSize)), int32(rng.Intn(geom.WorldSize)))
		q := geom.Pt(
			clamp(p.X+int32(rng.Intn(int(2*maxLen+1)))-maxLen, 0, geom.WorldSize-1),
			clamp(p.Y+int32(rng.Intn(int(2*maxLen+1)))-maxLen, 0, geom.WorldSize-1),
		)
		out[i] = geom.Segment{P1: p, P2: q}
	}
	return out
}

func clamp(v, lo, hi int32) int32 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func TestEmptyTree(t *testing.T) {
	e := newEnv(t, 512, 8, DefaultConfig())
	res, err := core.FirstNearestObs(e.tree, geom.Pt(1, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Error("found in empty tree")
	}
	if err := e.tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertAndWindowExhaustive(t *testing.T) {
	for _, cfg := range []Config{DefaultConfig(), KDBConfig()} {
		e := newEnv(t, 512, 16, cfg)
		rng := rand.New(rand.NewSource(31))
		segs := randSegs(rng, 800, 300)
		for _, s := range segs {
			e.add(t, s)
		}
		if err := e.tree.Validate(); err != nil {
			t.Fatalf("%s: %v", e.tree.Name(), err)
		}
		if e.tree.Height() < 2 {
			t.Fatalf("%s: height = %d", e.tree.Name(), e.tree.Height())
		}
		for trial := 0; trial < 50; trial++ {
			r := geom.RectOf(
				int32(rng.Intn(geom.WorldSize)), int32(rng.Intn(geom.WorldSize)),
				int32(rng.Intn(geom.WorldSize)), int32(rng.Intn(geom.WorldSize)))
			got := map[seg.ID]bool{}
			err := e.tree.WindowObs(r, func(id seg.ID, s geom.Segment) bool {
				if got[id] {
					t.Fatalf("%s: segment %d reported twice", e.tree.Name(), id)
				}
				got[id] = true
				return true
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, s := range segs {
				want := r.IntersectsSegment(s)
				if got[seg.ID(i)] != want {
					t.Fatalf("%s trial %d: window %v seg %d: got %v want %v",
						e.tree.Name(), trial, r, i, got[seg.ID(i)], want)
				}
			}
		}
	}
}

func TestNearestMatchesBruteForce(t *testing.T) {
	e := newEnv(t, 512, 16, DefaultConfig())
	rng := rand.New(rand.NewSource(32))
	segs := randSegs(rng, 500, 200)
	for _, s := range segs {
		e.add(t, s)
	}
	for trial := 0; trial < 200; trial++ {
		p := geom.Pt(int32(rng.Intn(geom.WorldSize)), int32(rng.Intn(geom.WorldSize)))
		res, err := core.FirstNearestObs(e.tree, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		best := math.Inf(1)
		for _, s := range segs {
			if d := geom.DistSqPointSegment(p, s); d < best {
				best = d
			}
		}
		if !res.Found || res.DistSq != best {
			t.Fatalf("trial %d: nearest %v (found %v), brute force %v", trial, res.DistSq, res.Found, best)
		}
	}
}

func TestLongSegmentsDuplicateAcrossLeaves(t *testing.T) {
	// World-spanning segments are stored in many leaves but reported once.
	e := newEnv(t, 256, 16, DefaultConfig())
	rng := rand.New(rand.NewSource(33))
	var segs []geom.Segment
	for i := 0; i < 120; i++ {
		y := int32(rng.Intn(geom.WorldSize))
		segs = append(segs, geom.Seg(0, y, geom.WorldSize-1, y))
	}
	for i := 0; i < 120; i++ {
		x := int32(rng.Intn(geom.WorldSize))
		segs = append(segs, geom.Seg(x, 0, x, geom.WorldSize-1))
	}
	for _, s := range segs {
		e.add(t, s)
	}
	if err := e.tree.Validate(); err != nil {
		t.Fatal(err)
	}
	got := map[seg.ID]int{}
	e.tree.WindowObs(geom.World(), func(id seg.ID, _ geom.Segment) bool {
		got[id]++
		return true
	}, nil)
	if len(got) != len(segs) {
		t.Fatalf("window found %d of %d", len(got), len(segs))
	}
	for id, c := range got {
		if c != 1 {
			t.Fatalf("segment %d reported %d times", id, c)
		}
	}
}

func TestDelete(t *testing.T) {
	e := newEnv(t, 512, 16, DefaultConfig())
	rng := rand.New(rand.NewSource(34))
	segs := randSegs(rng, 400, 400)
	for _, s := range segs {
		e.add(t, s)
	}
	perm := rng.Perm(len(segs))
	deleted := map[seg.ID]bool{}
	for _, i := range perm[:200] {
		if err := e.tree.Delete(seg.ID(i)); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
		deleted[seg.ID(i)] = true
	}
	if e.tree.Len() != 200 {
		t.Fatalf("Len = %d", e.tree.Len())
	}
	got := map[seg.ID]bool{}
	e.tree.WindowObs(geom.World(), func(id seg.ID, _ geom.Segment) bool {
		got[id] = true
		return true
	}, nil)
	for i := range segs {
		id := seg.ID(i)
		if deleted[id] == got[id] {
			t.Fatalf("segment %d: deleted=%v reported=%v", id, deleted[id], got[id])
		}
	}
	if err := e.tree.Delete(seg.ID(perm[0])); err != seg.ErrNotIndexed {
		t.Fatalf("double delete: %v", err)
	}
}

func TestPointQueryFollowsSinglePath(t *testing.T) {
	// Disjointness: a point query visits exactly one node per level (plus
	// the leaf), unlike the R*-tree. Verified via bbox-comp accounting:
	// the number of node reads equals the height.
	e := newEnv(t, 512, 16, DefaultConfig())
	rng := rand.New(rand.NewSource(35))
	for _, s := range randSegs(rng, 2000, 100) {
		e.add(t, s)
	}
	e.tree.DropCache()
	before := e.tree.DiskStats()
	p := geom.Pt(8000, 8000)
	core.IncidentAtObs(e.tree, p, func(seg.ID, geom.Segment) bool { return true }, nil)
	reads := e.tree.DiskStats().Sub(before).Reads
	if int(reads) != e.tree.Height() {
		t.Errorf("cold point query read %d pages, height is %d", reads, e.tree.Height())
	}
}

func TestKDBVariantFetchesMoreSegments(t *testing.T) {
	// The pure k-d-B variant cannot reject leaf entries by MBR, so point
	// probes fetch more segments (§3: "point search queries are slightly
	// faster in the R+-tree than in the k-d-B-tree").
	rng := rand.New(rand.NewSource(36))
	segs := randSegs(rng, 2000, 100)
	probes := make([]geom.Point, 200)
	for i := range probes {
		probes[i] = geom.Pt(int32(rng.Intn(geom.WorldSize)), int32(rng.Intn(geom.WorldSize)))
	}
	run := func(cfg Config) uint64 {
		table := seg.NewTable(1024, 16)
		tree, err := New(store.NewPool(store.NewDisk(1024), 16), table, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range segs {
			id, _ := table.Append(s)
			if err := tree.Insert(id); err != nil {
				t.Fatal(err)
			}
		}
		before := table.Comparisons()
		for _, p := range probes {
			core.IncidentAtObs(tree, p, func(seg.ID, geom.Segment) bool { return true }, nil)
		}
		return table.Comparisons() - before
	}
	hybrid := run(DefaultConfig())
	kdb := run(KDBConfig())
	if kdb <= hybrid {
		t.Errorf("k-d-B seg comps (%d) should exceed hybrid R+ (%d)", kdb, hybrid)
	}
}

func TestUnsplittableNode(t *testing.T) {
	// More identical max-length diagonal segments through one point than a
	// page can hold: every split line cuts all of them.
	e := newEnv(t, 128, 8, DefaultConfig()) // capacity (128-4)/20 = 6
	var err error
	for i := 0; i < 10 && err == nil; i++ {
		id, aerr := e.table.Append(geom.Seg(0, int32(i), geom.WorldSize-1, geom.WorldSize-1-int32(i)))
		if aerr != nil {
			t.Fatal(aerr)
		}
		err = e.tree.Insert(id)
	}
	if err == nil {
		t.Skip("splits remained productive; no unsplittable state reached")
	}
	if err != ErrUnsplittable {
		t.Fatalf("err = %v, want ErrUnsplittable", err)
	}
}

// leafEntries walks the subtree at id, counting its leaf pages and the
// entries in them.
func leafEntries(t *testing.T, tr *Tree, id store.PageID) (entries, leaves int) {
	t.Helper()
	n, err := tr.ReadNode(id)
	if err != nil {
		t.Fatal(err)
	}
	if n.Leaf {
		return len(n.Entries), 1
	}
	for _, e := range n.Entries {
		ce, cl := leafEntries(t, tr, store.PageID(e.Ptr))
		entries += ce
		leaves += cl
	}
	return entries, leaves
}

func TestStorageExceedsSegmentCount(t *testing.T) {
	// Duplication: total leaf entries exceed the number of segments for
	// maps with long segments (the storage premium of Table 1).
	e := newEnv(t, 512, 16, DefaultConfig())
	rng := rand.New(rand.NewSource(37))
	for _, s := range randSegs(rng, 1500, 800) {
		e.add(t, s)
	}
	entries, leaves := leafEntries(t, e.tree, e.tree.Root)
	if entries <= len(e.segs) {
		t.Errorf("leaf entries %d should exceed segment count %d (duplication)", entries, len(e.segs))
	}
	if leaves == 0 {
		t.Fatal("no leaves")
	}
}

// A dense grid of long horizontal and vertical lines forces internal-node
// splits whose children straddle the chosen line — the k-d-B downward
// split path (splitSubtree).
func TestDownwardSplits(t *testing.T) {
	e := newEnv(t, 256, 16, DefaultConfig()) // capacity (256-4)/20 = 12
	rng := rand.New(rand.NewSource(121))
	var segs []geom.Segment
	for i := 0; i < 150; i++ {
		y := int32(rng.Intn(geom.WorldSize))
		segs = append(segs, geom.Seg(int32(rng.Intn(3000)), y, geom.WorldSize-1-int32(rng.Intn(3000)), y))
		x := int32(rng.Intn(geom.WorldSize))
		segs = append(segs, geom.Seg(x, int32(rng.Intn(3000)), x, geom.WorldSize-1-int32(rng.Intn(3000))))
	}
	for _, s := range segs {
		e.add(t, s)
		if len(e.segs)%50 == 0 {
			if err := e.tree.Validate(); err != nil {
				t.Fatalf("after %d inserts: %v", len(e.segs), err)
			}
		}
	}
	if e.tree.Height() < 3 {
		t.Fatalf("height %d; test needs internal splits", e.tree.Height())
	}
	if err := e.tree.Validate(); err != nil {
		t.Fatal(err)
	}
	// Exhaustive windows against brute force.
	for trial := 0; trial < 30; trial++ {
		r := geom.RectOf(
			int32(rng.Intn(geom.WorldSize)), int32(rng.Intn(geom.WorldSize)),
			int32(rng.Intn(geom.WorldSize)), int32(rng.Intn(geom.WorldSize)))
		got := map[seg.ID]bool{}
		e.tree.WindowObs(r, func(id seg.ID, _ geom.Segment) bool { got[id] = true; return true }, nil)
		for i, s := range segs {
			if want := r.IntersectsSegment(s); got[seg.ID(i)] != want {
				t.Fatalf("trial %d seg %d: got %v want %v", trial, i, got[seg.ID(i)], want)
			}
		}
	}
	// Deep deletes after downward splits still work.
	for i := 0; i < 100; i++ {
		if err := e.tree.Delete(seg.ID(i)); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	if err := e.tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAvgLeafOccupancyAndAccessors(t *testing.T) {
	e := newEnv(t, 512, 16, DefaultConfig())
	rng := rand.New(rand.NewSource(122))
	for _, s := range randSegs(rng, 300, 200) {
		e.add(t, s)
	}
	if e.tree.Name() != "R+-tree" || e.tree.Table() != e.table {
		t.Error("accessors wrong")
	}
	if e.tree.SizeBytes() <= 0 || e.tree.NodeComps() == 0 {
		t.Error("stats not advancing")
	}
	occ, err := e.tree.AvgLeafOccupancy()
	if err != nil {
		t.Fatal(err)
	}
	if occ < 2 || occ > float64(e.tree.Max) {
		t.Errorf("occupancy %.1f out of range", occ)
	}
	// Empty tree occupancy is zero entries over one leaf.
	empty := newEnv(t, 512, 8, DefaultConfig())
	occ, err = empty.tree.AvgLeafOccupancy()
	if err != nil || occ != 0 {
		t.Errorf("empty occupancy = %v, %v", occ, err)
	}
}

// The downward split machinery is unreachable under the min-cut split
// policy (see the note on splitSubtree), but must still be correct for
// alternative policies; exercise it directly by cutting a built subtree.
func TestSplitSubtreeDirect(t *testing.T) {
	e := newEnv(t, 256, 16, DefaultConfig())
	rng := rand.New(rand.NewSource(131))
	segs := randSegs(rng, 400, 400)
	for _, s := range segs {
		e.add(t, s)
	}
	if e.tree.Height() < 2 {
		t.Fatal("need a multi-level tree")
	}
	root, region := e.tree.RootForTest()
	// Cut the whole tree down the middle, through nodes and leaves alike.
	lo, hi, err := e.tree.SplitSubtreeForTest(root, region, 0, geom.WorldSize/2)
	if err != nil {
		t.Fatal(err)
	}
	// Stitch the halves under a new root and verify the result still
	// satisfies every invariant and answers window queries correctly.
	loR := geom.RectOf(0, 0, geom.WorldSize/2-1, geom.WorldSize-1)
	hiR := geom.RectOf(geom.WorldSize/2, 0, geom.WorldSize-1, geom.WorldSize-1)
	rid, err := e.tree.AllocNode(&rpage.Node{Entries: []rpage.Entry{
		{Rect: loR, Ptr: uint32(lo)},
		{Rect: hiR, Ptr: uint32(hi)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	e.tree.Root = rid
	e.tree.Levels++
	if err := e.tree.Validate(); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		r := geom.RectOf(
			int32(rng.Intn(geom.WorldSize)), int32(rng.Intn(geom.WorldSize)),
			int32(rng.Intn(geom.WorldSize)), int32(rng.Intn(geom.WorldSize)))
		got := map[seg.ID]bool{}
		e.tree.WindowObs(r, func(id seg.ID, _ geom.Segment) bool { got[id] = true; return true }, nil)
		for i, s := range segs {
			if want := r.IntersectsSegment(s); got[seg.ID(i)] != want {
				t.Fatalf("trial %d seg %d: got %v want %v", trial, i, got[seg.ID(i)], want)
			}
		}
	}
}
