package rstar

import (
	"math"
	"math/rand"
	"testing"

	"segdb/internal/core"
	"segdb/internal/geom"
	"segdb/internal/obs"
	"segdb/internal/seg"
	"segdb/internal/store"
)

// testEnv bundles a tree with its segment table.
type testEnv struct {
	tree  *Tree
	table *seg.Table
	segs  []geom.Segment
	op    obs.Op // what add charges
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
	if err := e.tree.Insert(id, &e.op); err != nil {
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
	res, err := core.FirstNearestObs(e.tree, geom.Pt(100, 100), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Error("nearest in empty tree should not be found")
	}
	ids, err := core.WindowQuery(e.tree, geom.World())
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 {
		t.Errorf("window on empty tree returned %d", len(ids))
	}
	if err := e.tree.Validate(nil); err != nil {
		t.Fatal(err)
	}
}

func TestInsertAndWindowExhaustive(t *testing.T) {
	e := newEnv(t, 512, 16, DefaultConfig())
	rng := rand.New(rand.NewSource(21))
	segs := randSegs(rng, 800, 300)
	for _, s := range segs {
		e.add(t, s)
	}
	if err := e.tree.Validate(nil); err != nil {
		t.Fatal(err)
	}
	if e.tree.Levels < 2 {
		t.Fatalf("height = %d, expected growth", e.tree.Levels)
	}
	for trial := 0; trial < 50; trial++ {
		r := geom.RectOf(
			int32(rng.Intn(geom.WorldSize)), int32(rng.Intn(geom.WorldSize)),
			int32(rng.Intn(geom.WorldSize)), int32(rng.Intn(geom.WorldSize)))
		got := map[seg.ID]bool{}
		err := e.tree.WindowObs(r, func(id seg.ID, s geom.Segment) bool {
			if got[id] {
				t.Fatalf("segment %d reported twice", id)
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
				t.Fatalf("trial %d: window %v segment %d (%v): got %v want %v",
					trial, r, i, s, got[seg.ID(i)], want)
			}
		}
	}
}

func TestNearestMatchesBruteForce(t *testing.T) {
	e := newEnv(t, 512, 16, DefaultConfig())
	rng := rand.New(rand.NewSource(22))
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
		if !res.Found {
			t.Fatal("not found")
		}
		best := math.Inf(1)
		for _, s := range segs {
			if d := geom.DistSqPointSegment(p, s); d < best {
				best = d
			}
		}
		if res.DistSq != best {
			t.Fatalf("trial %d: nearest dist %v, brute force %v", trial, res.DistSq, best)
		}
	}
}

func TestWindowEarlyStop(t *testing.T) {
	e := newEnv(t, 512, 16, DefaultConfig())
	rng := rand.New(rand.NewSource(23))
	for _, s := range randSegs(rng, 200, 100) {
		e.add(t, s)
	}
	n := 0
	e.tree.WindowObs(geom.World(), func(seg.ID, geom.Segment) bool {
		n++
		return n < 5
	}, nil)
	if n != 5 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestDeleteAndReinsert(t *testing.T) {
	e := newEnv(t, 512, 16, DefaultConfig())
	rng := rand.New(rand.NewSource(24))
	segs := randSegs(rng, 600, 250)
	for _, s := range segs {
		e.add(t, s)
	}
	// Delete a random half.
	perm := rng.Perm(len(segs))
	deleted := map[seg.ID]bool{}
	for _, i := range perm[:300] {
		if err := e.tree.Delete(seg.ID(i), nil); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
		deleted[seg.ID(i)] = true
	}
	if err := e.tree.Validate(nil); err != nil {
		t.Fatal(err)
	}
	if e.tree.Len() != 300 {
		t.Fatalf("Len = %d", e.tree.Len())
	}
	// Deleted segments are gone; the rest remain.
	got := map[seg.ID]bool{}
	e.tree.WindowObs(geom.World(), func(id seg.ID, _ geom.Segment) bool {
		got[id] = true
		return true
	}, nil)
	for i := range segs {
		id := seg.ID(i)
		if deleted[id] && got[id] {
			t.Fatalf("deleted segment %d still reported", id)
		}
		if !deleted[id] && !got[id] {
			t.Fatalf("live segment %d missing", id)
		}
	}
	// Deleting a deleted segment fails.
	if err := e.tree.Delete(seg.ID(perm[0]), nil); err != seg.ErrNotIndexed {
		t.Fatalf("double delete: %v", err)
	}
}

func TestDeleteAll(t *testing.T) {
	e := newEnv(t, 256, 16, DefaultConfig())
	rng := rand.New(rand.NewSource(25))
	segs := randSegs(rng, 300, 150)
	for _, s := range segs {
		e.add(t, s)
	}
	for i := range segs {
		if err := e.tree.Delete(seg.ID(i), nil); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	if e.tree.Len() != 0 || e.tree.Levels != 1 {
		t.Fatalf("Len=%d Height=%d after deleting all", e.tree.Len(), e.tree.Levels)
	}
	if err := e.tree.Validate(nil); err != nil {
		t.Fatal(err)
	}
}

func TestForcedReinsertAblation(t *testing.T) {
	// With reinsertion disabled the tree still validates and answers
	// queries, but performs fewer node computations during the build.
	rng := rand.New(rand.NewSource(26))
	segs := randSegs(rng, 1000, 200)

	build := func(cfg Config) (*Tree, uint64) {
		table := seg.NewTable(1024, 16)
		tree, err := New(store.NewPool(store.NewDisk(1024), 16), table, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var o obs.Op
		for _, s := range segs {
			id, _ := table.Append(s)
			if err := tree.Insert(id, &o); err != nil {
				t.Fatal(err)
			}
		}
		if err := tree.Validate(nil); err != nil {
			t.Fatal(err)
		}
		return tree, o.Stats().NodeComps
	}
	withR, compsWith := build(DefaultConfig())
	withoutR, compsWithout := build(Config{MinFillFraction: 0.4, ReinsertFraction: 0})
	if compsWith <= compsWithout {
		t.Errorf("forced reinsert should cost extra comps: with=%d without=%d", compsWith, compsWithout)
	}
	// Both answer the same nearest queries.
	for trial := 0; trial < 50; trial++ {
		p := geom.Pt(int32(rng.Intn(geom.WorldSize)), int32(rng.Intn(geom.WorldSize)))
		a, _ := core.FirstNearestObs(withR, p, nil)
		b, _ := core.FirstNearestObs(withoutR, p, nil)
		if a.DistSq != b.DistSq {
			t.Fatalf("nearest disagreement at %v: %v vs %v", p, a.DistSq, b.DistSq)
		}
	}
}

func TestCapacityMatchesPaper(t *testing.T) {
	// §4: 1 KB pages with 20-byte tuples hold 50 entries.
	e := newEnv(t, 1024, 16, DefaultConfig())
	if got := e.tree.Max; got != 51 {
		// (1024-4)/20 = 51; the paper rounds to 50 ignoring the header.
		t.Errorf("Max = %d, want 51", got)
	}
}

func TestDegenerateSegments(t *testing.T) {
	// Vertical, horizontal and zero-length segments all round-trip.
	e := newEnv(t, 256, 8, DefaultConfig())
	cases := []geom.Segment{
		geom.Seg(10, 10, 10, 500), // vertical
		geom.Seg(10, 10, 500, 10), // horizontal
		geom.Seg(42, 42, 42, 42),  // point
	}
	for _, s := range cases {
		e.add(t, s)
	}
	ids, err := core.WindowQuery(e.tree, geom.RectOf(0, 0, 600, 600))
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(cases) {
		t.Errorf("window found %d of %d degenerate segments", len(ids), len(cases))
	}
	res, _ := core.FirstNearestObs(e.tree, geom.Pt(42, 43), nil)
	if res.DistSq != 1 {
		t.Errorf("nearest to point segment = %v", res.DistSq)
	}
}

func TestMetricsAdvance(t *testing.T) {
	e := newEnv(t, 512, 4, DefaultConfig())
	rng := rand.New(rand.NewSource(27))
	for _, s := range randSegs(rng, 400, 200) {
		e.add(t, s)
	}
	e.tree.DropCache()
	e.table.DropCache()
	m, err := core.Measure(e.tree, func(o *obs.Op) error {
		_, err := core.FirstNearestObs(e.tree, geom.Pt(8000, 8000), o)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.DiskAccesses == 0 {
		t.Error("cold nearest query should cost disk accesses")
	}
	if m.NodeComps == 0 {
		t.Error("nearest query should cost bbox comps")
	}
	if m.SegComps == 0 {
		t.Error("nearest query should cost segment comps")
	}
}

func TestGuttmanVariantCorrectness(t *testing.T) {
	e := newEnv(t, 512, 16, GuttmanConfig())
	if e.tree.Name() != "R-tree" {
		t.Fatalf("Name = %q", e.tree.Name())
	}
	rng := rand.New(rand.NewSource(101))
	segs := randSegs(rng, 800, 300)
	for _, s := range segs {
		e.add(t, s)
	}
	if err := e.tree.Validate(nil); err != nil {
		t.Fatal(err)
	}
	// Exhaustive window agreement with brute force.
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
	// Nearest agreement with brute force.
	for trial := 0; trial < 50; trial++ {
		p := geom.Pt(int32(rng.Intn(geom.WorldSize)), int32(rng.Intn(geom.WorldSize)))
		res, err := core.FirstNearestObs(e.tree, p, nil)
		if err != nil || !res.Found {
			t.Fatal(err)
		}
		best := math.Inf(1)
		for _, s := range segs {
			if d := geom.DistSqPointSegment(p, s); d < best {
				best = d
			}
		}
		if res.DistSq != best {
			t.Fatalf("trial %d: %v want %v", trial, res.DistSq, best)
		}
	}
	// Delete still works under quadratic splits.
	for i := 0; i < 400; i++ {
		if err := e.tree.Delete(seg.ID(i), nil); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	if err := e.tree.Validate(nil); err != nil {
		t.Fatal(err)
	}
}

func TestGuttmanBuildsCheaperQueriesWorse(t *testing.T) {
	// The R*-tree's motivation: more build effort buys better query trees.
	// With clustered data the R* build does more node computations, and
	// its window queries touch no more nodes than the classic R-tree's.
	rng := rand.New(rand.NewSource(102))
	segs := randSegs(rng, 3000, 120)
	build := func(cfg Config) (*Tree, uint64) {
		table := seg.NewTable(1024, 16)
		tree, err := New(store.NewPool(store.NewDisk(1024), 16), table, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var o obs.Op
		for _, s := range segs {
			id, _ := table.Append(s)
			if err := tree.Insert(id, &o); err != nil {
				t.Fatal(err)
			}
		}
		return tree, o.Stats().NodeComps
	}
	star, starBuild := build(DefaultConfig())
	gut, gutBuild := build(GuttmanConfig())

	queryComps := func(tr *Tree) uint64 {
		var o obs.Op
		for trial := 0; trial < 300; trial++ {
			x := int32(rng.Intn(geom.WorldSize - 200))
			y := int32(rng.Intn(geom.WorldSize - 200))
			tr.WindowObs(geom.RectOf(x, y, x+164, y+164), func(seg.ID, geom.Segment) bool { return true }, &o)
		}
		return o.Stats().NodeComps
	}
	starQ, gutQ := queryComps(star), queryComps(gut)
	t.Logf("build comps: R*=%d R=%d; window query comps: R*=%d R=%d",
		starBuild, gutBuild, starQ, gutQ)
	if starQ > gutQ {
		t.Errorf("R* window comps (%d) should not exceed classic R-tree (%d)", starQ, gutQ)
	}
}

func TestBulkLoadCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	for _, n := range []int{0, 1, 5, 60, 800, 3000} {
		table := seg.NewTable(1024, 16)
		segs := randSegs(rng, n, 200)
		ids := make([]seg.ID, n)
		for i, s := range segs {
			ids[i], _ = table.Append(s)
		}
		tree, err := BulkLoad(store.NewPool(store.NewDisk(1024), 16), table, DefaultConfig(), ids)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if tree.Len() != n {
			t.Fatalf("n=%d: Len=%d", n, tree.Len())
		}
		if err := tree.Validate(nil); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// Window agreement with brute force.
		for trial := 0; trial < 10; trial++ {
			r := geom.RectOf(
				int32(rng.Intn(geom.WorldSize)), int32(rng.Intn(geom.WorldSize)),
				int32(rng.Intn(geom.WorldSize)), int32(rng.Intn(geom.WorldSize)))
			got := map[seg.ID]bool{}
			tree.WindowObs(r, func(id seg.ID, _ geom.Segment) bool { got[id] = true; return true }, nil)
			for i, s := range segs {
				if want := r.IntersectsSegment(s); got[seg.ID(i)] != want {
					t.Fatalf("n=%d trial %d seg %d: got %v want %v", n, trial, i, got[seg.ID(i)], want)
				}
			}
		}
		// The packed tree accepts further inserts and deletes.
		if n > 10 {
			extra, _ := table.Append(geom.Seg(5, 5, 9, 9))
			if err := tree.Insert(extra, nil); err != nil {
				t.Fatalf("n=%d: insert after bulk load: %v", n, err)
			}
			if err := tree.Delete(ids[0], nil); err != nil {
				t.Fatalf("n=%d: delete after bulk load: %v", n, err)
			}
			if err := tree.Validate(nil); err != nil {
				t.Fatalf("n=%d after updates: %v", n, err)
			}
		}
	}
}

func TestBulkLoadCheaperAndTighter(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	segs := randSegs(rng, 5000, 150)
	table1 := seg.NewTable(1024, 16)
	ids := make([]seg.ID, len(segs))
	for i, s := range segs {
		ids[i], _ = table1.Append(s)
	}
	pool1 := store.NewPool(store.NewDisk(1024), 16)
	packed, err := BulkLoad(pool1, table1, DefaultConfig(), ids)
	if err != nil {
		t.Fatal(err)
	}
	packedAccesses := packed.DiskStats().Accesses()

	table2 := seg.NewTable(1024, 16)
	for _, s := range segs {
		table2.Append(s)
	}
	pool2 := store.NewPool(store.NewDisk(1024), 16)
	incr, err := New(pool2, table2, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range segs {
		if err := incr.Insert(seg.ID(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	incrAccesses := incr.DiskStats().Accesses()
	t.Logf("bulk: %d accesses, %d KB; incremental: %d accesses, %d KB",
		packedAccesses, packed.SizeBytes()/1024, incrAccesses, incr.SizeBytes()/1024)
	if packedAccesses*3 > incrAccesses {
		t.Errorf("bulk load (%d) should cost far fewer accesses than incremental (%d)",
			packedAccesses, incrAccesses)
	}
	if packed.SizeBytes() > incr.SizeBytes() {
		t.Errorf("packed tree (%d) should be no larger than incremental (%d)",
			packed.SizeBytes(), incr.SizeBytes())
	}
}
