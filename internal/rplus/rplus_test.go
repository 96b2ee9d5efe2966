package rplus

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"segdb/internal/core"
	"segdb/internal/geom"
	"segdb/internal/obs"
	"segdb/internal/rpage"
	"segdb/internal/seg"
	"segdb/internal/store"
)

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
	res, err := core.FirstNearestObs(e.tree, geom.Pt(1, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Error("found in empty tree")
	}
	if err := e.tree.Validate(nil); err != nil {
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
		if err := e.tree.Validate(nil); err != nil {
			t.Fatalf("%s: %v", e.tree.Name(), err)
		}
		if e.tree.Levels < 2 {
			t.Fatalf("%s: height = %d", e.tree.Name(), e.tree.Levels)
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
	if err := e.tree.Validate(nil); err != nil {
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
		if err := e.tree.Delete(seg.ID(i), nil); err != nil {
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
	if err := e.tree.Delete(seg.ID(perm[0]), nil); err != seg.ErrNotIndexed {
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
	if int(reads) != e.tree.Levels {
		t.Errorf("cold point query read %d pages, height is %d", reads, e.tree.Levels)
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
			if err := tree.Insert(id, nil); err != nil {
				t.Fatal(err)
			}
		}
		var o obs.Op
		for _, p := range probes {
			core.IncidentAtObs(tree, p, func(seg.ID, geom.Segment) bool { return true }, &o)
		}
		return o.Stats().SegComps
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
		err = e.tree.Insert(id, nil)
	}
	if err == nil {
		t.Skip("splits remained productive; no unsplittable state reached")
	}
	if err != ErrUnsplittable {
		t.Fatalf("err = %v, want ErrUnsplittable", err)
	}
}

// leafEntries walks the subtree at id, a node of the given level,
// counting its leaf pages and the entries in them.
func leafEntries(t *testing.T, tr *Tree, id store.PageID, level int) (entries, leaves int) {
	t.Helper()
	n, err := tr.ReadNode(id, level)
	if err != nil {
		t.Fatal(err)
	}
	if n.Leaf {
		return len(n.Entries), 1
	}
	for _, e := range n.Entries {
		ce, cl := leafEntries(t, tr, store.PageID(e.Ptr), level-1)
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
	entries, leaves := leafEntries(t, e.tree, e.tree.Root, e.tree.Levels)
	if entries <= len(e.segs) {
		t.Errorf("leaf entries %d should exceed segment count %d (duplication)", entries, len(e.segs))
	}
	if leaves == 0 {
		t.Fatal("no leaves")
	}
}

// guillotine reports whether cells tile region by recursive full cuts:
// some line at a cell boundary cuts no cell, and the cells on either
// side are a guillotine partition of that side. Trying the first
// cut-free line is enough, because any cut-free line of a guillotine
// partition leaves both halves guillotine.
func guillotine(region geom.Rect, cells []geom.Rect) bool {
	if len(cells) <= 1 {
		return len(cells) == 1 && cells[0] == region
	}
	for axis := 0; axis < 2; axis++ {
		for _, c := range cells {
			at, _ := axisRange(c, axis)
			if rmin, _ := axisRange(region, axis); at <= rmin {
				continue
			}
			loR, hiR := splitRegion(region, axis, at)
			var lo, hi []geom.Rect
			clean := true
			for _, d := range cells {
				inLo, inHi := d.Intersects(loR), d.Intersects(hiR)
				if inLo && inHi {
					clean = false
					break
				}
				if inLo {
					lo = append(lo, d)
				} else {
					hi = append(hi, d)
				}
			}
			if clean {
				return guillotine(loR, lo) && guillotine(hiR, hi)
			}
		}
	}
	return false
}

// checkGuillotine fails unless the child regions of every internal node
// under id (a node of the given level covering region) form a guillotine
// partition of its region: the invariant that lets emitInternal always
// find a split line that cuts no child.
func checkGuillotine(t *testing.T, tr *Tree, id store.PageID, region geom.Rect, level int) {
	t.Helper()
	n, err := tr.ReadNode(id, level)
	if err != nil {
		t.Fatal(err)
	}
	if n.Leaf {
		return
	}
	cells := make([]geom.Rect, len(n.Entries))
	for i, e := range n.Entries {
		cells[i] = e.Rect
	}
	if !guillotine(region, cells) {
		t.Fatalf("page %d: child regions %v are not a guillotine partition of %v", id, cells, region)
	}
	for _, e := range n.Entries {
		checkGuillotine(t, tr, store.PageID(e.Ptr), e.Rect, level-1)
	}
}

// A dense grid of long horizontal and vertical lines splits many leaves
// of one parent per insert, so internal nodes overflow by several
// entries at once; every node must still partition its region by full
// cuts.
func TestLongLinesKeepGuillotinePartitions(t *testing.T) {
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
			if err := e.tree.Validate(nil); err != nil {
				t.Fatalf("after %d inserts: %v", len(e.segs), err)
			}
		}
	}
	if e.tree.Levels < 3 {
		t.Fatalf("height %d; test needs internal splits", e.tree.Levels)
	}
	if err := e.tree.Validate(nil); err != nil {
		t.Fatal(err)
	}
	checkGuillotine(t, e.tree, e.tree.Root, geom.World(), e.tree.Levels)
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
	// Deep deletes after internal splits still work.
	for i := 0; i < 100; i++ {
		if err := e.tree.Delete(seg.ID(i), nil); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	if err := e.tree.Validate(nil); err != nil {
		t.Fatal(err)
	}
}

// Inserts into a bulk-loaded tree split the regrouped k-d partition's
// nodes; the partition and every split of it must stay guillotine.
func TestBulkLoadThenInsertKeepsGuillotinePartitions(t *testing.T) {
	for _, cfg := range []Config{DefaultConfig(), KDBConfig()} {
		for _, pageSize := range []int{256, 1024} {
			table := seg.NewTable(pageSize, 64)
			rng := rand.New(rand.NewSource(int64(pageSize)))
			segs := randSegs(rng, 7000, 1000)
			ids := make([]seg.ID, len(segs))
			for i, s := range segs {
				id, err := table.Append(s)
				if err != nil {
					t.Fatal(err)
				}
				ids[i] = id
			}
			tree, err := BulkLoadObs(store.NewPool(store.NewDisk(pageSize), 64), table, cfg, ids[:5000], nil)
			if err != nil {
				t.Fatal(err)
			}
			checkGuillotine(t, tree, tree.Root, geom.World(), tree.Levels)
			internalSplits := 0
			tree.w.probe = func(_ geom.Rect, _ []splitLine, _ []geom.Segment, entries []rpage.Entry, _ splitLine, _ bool) {
				if entries != nil {
					internalSplits++
				}
			}
			for _, id := range ids[5000:] {
				if err := tree.Insert(id, nil); err != nil {
					t.Fatal(err)
				}
			}
			if err := tree.Validate(nil); err != nil {
				t.Fatalf("%s, %d B pages: %v", tree.Name(), pageSize, err)
			}
			if internalSplits == 0 {
				t.Fatalf("%s, %d B pages: the inserts split no internal node; the test is vacuous", tree.Name(), pageSize)
			}
			checkGuillotine(t, tree, tree.Root, geom.World(), tree.Levels)
		}
	}
}

// A pinwheel (four arms around a centre cut into nine cells) tiles its
// region, but every full line across it cuts an arm. No node this code
// writes looks like that, so emitInternal refuses it as a corrupt page
// instead of splitting a child downward.
func TestEmitInternalRefusesPinwheel(t *testing.T) {
	e := newEnv(t, 256, 16, DefaultConfig()) // capacity (256-4)/20 = 12
	region := geom.RectOf(0, 0, 26, 26)
	cells := []geom.Rect{
		geom.RectOf(0, 0, 17, 8), geom.RectOf(18, 0, 26, 17),
		geom.RectOf(9, 18, 26, 26), geom.RectOf(0, 9, 8, 26),
	}
	for x := int32(9); x <= 15; x += 3 {
		for y := int32(9); y <= 15; y += 3 {
			cells = append(cells, geom.RectOf(x, y, x+2, y+2))
		}
	}
	if len(cells) <= e.tree.Max || guillotine(region, cells) {
		t.Fatalf("%d cells (M = %d), guillotine %v: the pinwheel must overflow a node and have no cut-free line", len(cells), e.tree.Max, guillotine(region, cells))
	}
	entries := make([]rpage.Entry, len(cells))
	for i, c := range cells {
		entries[i] = rpage.Entry{Rect: c, Ptr: uint32(i + 1)}
	}
	pages := e.tree.Pool.Disk().PageCount()
	if _, err := e.tree.emitInternal(store.NilPage, false, region, entries); !errors.Is(err, store.ErrBadPage) {
		t.Fatalf("emitInternal on a pinwheel: err = %v, want ErrBadPage", err)
	}
	if got := e.tree.Pool.Disk().PageCount(); got != pages {
		t.Errorf("the refused split allocated pages: %d -> %d", pages, got)
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
	if e.tree.SizeBytes() <= 0 || e.op.Stats().NodeComps == 0 {
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
