package pmr

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"segdb/internal/core"
	"segdb/internal/geom"
	"segdb/internal/obs"
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
	if err := e.tree.Insert(id, nil); err != nil {
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

func TestEmpty(t *testing.T) {
	e := newEnv(t, 512, 8, DefaultConfig())
	res, err := core.FirstNearestObs(e.tree, geom.Pt(5, 5), nil)
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

func TestPaperFigure5Shape(t *testing.T) {
	// A rough analogue of Figure 5: with threshold 2, inserting segments
	// concentrated in one quadrant splits that quadrant while leaving the
	// rest of the space undecomposed.
	e := newEnv(t, 512, 8, Config{SplittingThreshold: 2, MaxDepth: 8})
	half := int32(geom.WorldSize / 2)
	for i := int32(0); i < 6; i++ {
		e.add(t, geom.Seg(10, 10+i*40, half/4, 10+i*40)) // all in SW quadrant
	}
	if err := e.tree.Validate(nil); err != nil {
		t.Fatal(err)
	}
	blocks, err := e.tree.LeafBlocks()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range blocks {
		if c.Depth() == 0 {
			t.Fatal("root should have split")
		}
		b := c.Block()
		if b.Min.X >= half || b.Min.Y >= half {
			t.Fatalf("occupied block %v outside the SW quadrant", b)
		}
	}
}

func TestInsertAndWindowExhaustive(t *testing.T) {
	e := newEnv(t, 512, 16, DefaultConfig())
	rng := rand.New(rand.NewSource(41))
	segs := randSegs(rng, 600, 300)
	for _, s := range segs {
		e.add(t, s)
	}
	if err := e.tree.Validate(nil); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 40; trial++ {
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
				t.Fatalf("trial %d: window %v seg %d: got %v want %v", trial, r, i, got[seg.ID(i)], want)
			}
		}
	}
}

func TestNearestMatchesBruteForce(t *testing.T) {
	e := newEnv(t, 512, 16, DefaultConfig())
	rng := rand.New(rand.NewSource(42))
	segs := randSegs(rng, 400, 250)
	for _, s := range segs {
		e.add(t, s)
	}
	for trial := 0; trial < 150; trial++ {
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
			t.Fatalf("trial %d at %v: got %v, want %v", trial, p, res.DistSq, best)
		}
	}
}

func TestSplitOnceRule(t *testing.T) {
	// Threshold 1, two nearly coincident short segments: a single split
	// round happens per insertion even though the children still exceed
	// the threshold, so the block occupancy bound (threshold + depth)
	// holds rather than infinite recursion occurring.
	e := newEnv(t, 512, 8, Config{SplittingThreshold: 1, MaxDepth: 14})
	e.add(t, geom.Seg(100, 100, 110, 110))
	e.add(t, geom.Seg(100, 101, 110, 111))
	e.add(t, geom.Seg(100, 102, 110, 112))
	if err := e.tree.Validate(nil); err != nil {
		t.Fatal(err)
	}
}

func TestMaxDepthStopsSplitting(t *testing.T) {
	// Identical overlapping segments can never be separated; the max
	// depth keeps the structure finite and occupancy grows beyond the
	// threshold only up to threshold + depth.
	e := newEnv(t, 512, 8, Config{SplittingThreshold: 2, MaxDepth: 4})
	for i := 0; i < 8; i++ {
		e.add(t, geom.Seg(1000, 1000, 1400, 1400))
	}
	if err := e.tree.Validate(nil); err != nil {
		t.Fatal(err)
	}
	blocks, _ := e.tree.LeafBlocks()
	for _, c := range blocks {
		if c.Depth() > 4 {
			t.Fatalf("block at depth %d exceeds max depth", c.Depth())
		}
	}
}

func TestDeleteAndMerge(t *testing.T) {
	e := newEnv(t, 512, 16, DefaultConfig())
	rng := rand.New(rand.NewSource(43))
	segs := randSegs(rng, 300, 300)
	for _, s := range segs {
		e.add(t, s)
	}
	peakBlocks, _ := e.tree.LeafBlocks()
	perm := rng.Perm(len(segs))
	for _, i := range perm[:250] {
		if err := e.tree.Delete(seg.ID(i), nil); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	if err := e.tree.Validate(nil); err != nil {
		t.Fatal(err)
	}
	if e.tree.Len() != 50 {
		t.Fatalf("Len = %d", e.tree.Len())
	}
	afterBlocks, _ := e.tree.LeafBlocks()
	if len(afterBlocks) >= len(peakBlocks) {
		t.Errorf("blocks after mass delete = %d, peak %d; merging should shrink", len(afterBlocks), len(peakBlocks))
	}
	// Remaining segments still found.
	got := map[seg.ID]bool{}
	e.tree.WindowObs(geom.World(), func(id seg.ID, _ geom.Segment) bool {
		got[id] = true
		return true
	}, nil)
	if len(got) != 50 {
		t.Fatalf("window found %d segments, want 50", len(got))
	}
	// Double delete fails.
	if err := e.tree.Delete(seg.ID(perm[0]), nil); err != seg.ErrNotIndexed {
		t.Fatalf("double delete: %v", err)
	}
}

func TestDeleteAllMergesToRoot(t *testing.T) {
	e := newEnv(t, 512, 16, DefaultConfig())
	rng := rand.New(rand.NewSource(44))
	segs := randSegs(rng, 100, 400)
	for _, s := range segs {
		e.add(t, s)
	}
	for i := range segs {
		if err := e.tree.Delete(seg.ID(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if e.tree.Len() != 0 || e.tree.QEdges() != 0 {
		t.Fatalf("Len=%d QEdges=%d after deleting everything", e.tree.Len(), e.tree.QEdges())
	}
}

func TestThresholdTradeoff(t *testing.T) {
	// §3: "as the splitting threshold is increased, the storage
	// requirements decrease while the time necessary to perform
	// operations increases".
	rng := rand.New(rand.NewSource(45))
	segs := randSegs(rng, 2000, 150)
	build := func(threshold int) (*Tree, int64) {
		table := seg.NewTable(1024, 16)
		tree, err := New(store.NewPool(store.NewDisk(1024), 16), table, Config{SplittingThreshold: threshold, MaxDepth: 14})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range segs {
			id, _ := table.Append(s)
			if err := tree.Insert(id, nil); err != nil {
				t.Fatal(err)
			}
		}
		return tree, tree.SizeBytes()
	}
	_, size4 := build(4)
	t64, size64 := build(64)
	if size64 > size4 {
		t.Errorf("threshold 64 size %d should not exceed threshold 4 size %d", size64, size4)
	}
	// Occupied blocks hold on average about half the threshold (§7) —
	// loosely: the average must rise substantially with the threshold.
	occ, _ := t64.AvgBlockOccupancy()
	if occ < 4 {
		t.Errorf("avg occupancy at threshold 64 = %.1f, expected well above 4", occ)
	}
}

func TestQEdgeDuplication(t *testing.T) {
	e := newEnv(t, 512, 16, DefaultConfig())
	rng := rand.New(rand.NewSource(46))
	segs := randSegs(rng, 500, 600)
	for _, s := range segs {
		e.add(t, s)
	}
	if e.tree.QEdges() <= len(segs) {
		t.Errorf("q-edges %d should exceed segments %d", e.tree.QEdges(), len(segs))
	}
}

func TestLeafBlocksAreDistinctAndOrdered(t *testing.T) {
	e := newEnv(t, 512, 16, DefaultConfig())
	rng := rand.New(rand.NewSource(47))
	for _, s := range randSegs(rng, 400, 200) {
		e.add(t, s)
	}
	blocks, err := e.tree.LeafBlocks()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[geom.Code]bool{}
	for _, c := range blocks {
		if seen[c] {
			t.Fatalf("duplicate block %v", c)
		}
		seen[c] = true
	}
}

func TestIncidentAtFindsJunction(t *testing.T) {
	e := newEnv(t, 512, 16, DefaultConfig())
	j := geom.Pt(5000, 5000)
	ids := []seg.ID{
		e.add(t, geom.Segment{P1: j, P2: geom.Pt(5200, 5000)}),
		e.add(t, geom.Segment{P1: j, P2: geom.Pt(5000, 5300)}),
		e.add(t, geom.Segment{P1: geom.Pt(4800, 4800), P2: j}),
	}
	e.add(t, geom.Seg(100, 100, 200, 200)) // unrelated
	found := map[seg.ID]bool{}
	err := core.IncidentAtObs(e.tree, j, func(id seg.ID, _ geom.Segment) bool {
		found[id] = true
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(found) != len(ids) {
		t.Fatalf("found %d incident segments, want %d", len(found), len(ids))
	}
	for _, id := range ids {
		if !found[id] {
			t.Errorf("segment %d missing", id)
		}
	}
}

// Differential test: the cover-scan leavesFor must agree exactly with the
// straightforward top-down descent on arbitrary decompositions.
func TestLeavesForMatchesDescent(t *testing.T) {
	for _, cfg := range []Config{
		DefaultConfig(),
		{SplittingThreshold: 1, MaxDepth: 14},
		{SplittingThreshold: 8, MaxDepth: 6},
	} {
		e := newEnv(t, 512, 16, cfg)
		rng := rand.New(rand.NewSource(int64(cfg.SplittingThreshold)))
		// Mix of short and long segments, inserted incrementally with
		// cross-checks along the way.
		for i := 0; i < 400; i++ {
			var s geom.Segment
			if i%7 == 0 {
				y := int32(rng.Intn(geom.WorldSize))
				s = geom.Seg(int32(rng.Intn(2000)), y, int32(geom.WorldSize-1-rng.Intn(2000)), y)
			} else {
				s = randSegs(rng, 1, 500)[0]
			}
			e.add(t, s)
			if i%25 == 0 {
				probe := randSegs(rng, 1, 800)[0]
				got, err := e.tree.leavesFor(probe, nil)
				if err != nil {
					t.Fatal(err)
				}
				want, err := e.tree.leavesForDescent(probe)
				if err != nil {
					t.Fatal(err)
				}
				gm := map[geom.Code]bool{}
				for _, c := range got {
					gm[c] = true
				}
				if len(got) != len(want) {
					t.Fatalf("cfg %+v step %d: leavesFor %d codes, descent %d (probe %v)",
						cfg, i, len(got), len(want), probe)
				}
				for _, c := range want {
					if !gm[c] {
						t.Fatalf("cfg %+v step %d: missing leaf %v for probe %v", cfg, i, c.Block(), probe)
					}
				}
			}
		}
		if err := e.tree.Validate(nil); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLeavesForEmptyTree(t *testing.T) {
	e := newEnv(t, 512, 8, DefaultConfig())
	got, err := e.tree.leavesFor(geom.Seg(10, 10, 500, 500), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != geom.RootCode() {
		t.Fatalf("leaves in empty tree = %v, want [root]", got)
	}
}

// The StoreMBR ("3-tuple") variant of §6 must answer every query exactly
// like the plain variant, while fetching fewer segments and using more
// storage.
func TestStoreMBRVariantAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	segs := randSegs(rng, 1500, 300)
	build := func(storeMBR bool) *testEnv {
		cfg := DefaultConfig()
		cfg.StoreMBR = storeMBR
		e := newEnv(t, 1024, 16, cfg)
		for _, s := range segs {
			e.add(t, s)
		}
		if err := e.tree.Validate(nil); err != nil {
			t.Fatal(err)
		}
		return e
	}
	plain := build(false)
	mbr := build(true)

	if mbr.tree.SizeBytes() <= plain.tree.SizeBytes() {
		t.Errorf("StoreMBR size %d should exceed plain %d",
			mbr.tree.SizeBytes(), plain.tree.SizeBytes())
	}
	if mbr.tree.QEdges() != plain.tree.QEdges() {
		t.Errorf("q-edge counts differ: %d vs %d", mbr.tree.QEdges(), plain.tree.QEdges())
	}

	// Windows, point queries and nearest agree exactly.
	for trial := 0; trial < 60; trial++ {
		r := geom.RectOf(
			int32(rng.Intn(geom.WorldSize)), int32(rng.Intn(geom.WorldSize)),
			int32(rng.Intn(geom.WorldSize)), int32(rng.Intn(geom.WorldSize)))
		a := map[seg.ID]bool{}
		plain.tree.WindowObs(r, func(id seg.ID, _ geom.Segment) bool { a[id] = true; return true }, nil)
		b := map[seg.ID]bool{}
		mbr.tree.WindowObs(r, func(id seg.ID, _ geom.Segment) bool { b[id] = true; return true }, nil)
		if len(a) != len(b) {
			t.Fatalf("trial %d: window results differ: %d vs %d", trial, len(a), len(b))
		}
		for id := range a {
			if !b[id] {
				t.Fatalf("trial %d: StoreMBR missing %d", trial, id)
			}
		}
		p := geom.Pt(int32(rng.Intn(geom.WorldSize)), int32(rng.Intn(geom.WorldSize)))
		ra, _ := core.FirstNearestObs(plain.tree, p, nil)
		rb, _ := core.FirstNearestObs(mbr.tree, p, nil)
		if ra.DistSq != rb.DistSq {
			t.Fatalf("trial %d: nearest %v vs %v", trial, ra.DistSq, rb.DistSq)
		}
	}

	// The point of the variant: fewer segment-table fetches per query.
	run := func(e *testEnv) uint64 {
		var o obs.Op
		for trial := 0; trial < 200; trial++ {
			s := segs[trial%len(segs)]
			core.IncidentAtObs(e.tree, s.P1, func(seg.ID, geom.Segment) bool { return true }, &o)
		}
		return o.Stats().SegComps
	}
	fp, fm := run(plain), run(mbr)
	if fm >= fp {
		t.Errorf("StoreMBR point-query seg comps %d should be below plain %d", fm, fp)
	}
}

func TestStoreMBRDeleteAndMerge(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StoreMBR = true
	e := newEnv(t, 512, 16, cfg)
	rng := rand.New(rand.NewSource(92))
	segs := randSegs(rng, 200, 300)
	for _, s := range segs {
		e.add(t, s)
	}
	for i := 0; i < 150; i++ {
		if err := e.tree.Delete(seg.ID(i), nil); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	if err := e.tree.Validate(nil); err != nil {
		t.Fatal(err)
	}
	got := map[seg.ID]bool{}
	e.tree.WindowObs(geom.World(), func(id seg.ID, _ geom.Segment) bool { got[id] = true; return true }, nil)
	if len(got) != 50 {
		t.Fatalf("found %d segments after deletes", len(got))
	}
}

func TestQEdgeRectRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	for i := 0; i < 3000; i++ {
		depth := rng.Intn(geom.MaxDepth + 1)
		c := geom.MakeCode(geom.Pt(int32(rng.Intn(geom.WorldSize)), int32(rng.Intn(geom.WorldSize))), depth)
		block := c.Block()
		// A segment guaranteed to hit the block.
		s := geom.Segment{
			P1: geom.Pt(
				block.Min.X+int32(rng.Intn(int(block.Width()+1))),
				block.Min.Y+int32(rng.Intn(int(block.Height()+1)))),
			P2: geom.Pt(int32(rng.Intn(geom.WorldSize)), int32(rng.Intn(geom.WorldSize))),
		}
		val := encodeQEdgeRect(c, s)
		r, ok := decodeQEdgeRect(c, val)
		if !ok {
			t.Fatal("decode failed")
		}
		if !block.ContainsRect(r) {
			t.Fatalf("decoded rect %v escapes block %v", r, block)
		}
		// The stored rect covers the q-edge: any point of the segment
		// inside the block must be within 1px (clip rounding) of r.
		q, ok := block.ClipSegment(s)
		if ok {
			grown := geom.Rect{
				Min: geom.Pt(maxI32(r.Min.X-1, block.Min.X), maxI32(r.Min.Y-1, block.Min.Y)),
				Max: geom.Pt(minI32c(r.Max.X+1, block.Max.X), minI32c(r.Max.Y+1, block.Max.Y)),
			}
			if !grown.ContainsPoint(clampPt(q.P1, block)) || !grown.ContainsPoint(clampPt(q.P2, block)) {
				t.Fatalf("stored rect %v does not cover q-edge %v in block %v", r, q, block)
			}
		}
	}
}

func clampPt(p geom.Point, r geom.Rect) geom.Point {
	return geom.Pt(clamp(p.X, r.Min.X, r.Max.X), clamp(p.Y, r.Min.Y, r.Max.Y))
}

func maxI32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}

func minI32c(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}

// Property: key packing round-trips block code and segment id exactly,
// and preserves Z-order (containers sort before their contents).
func TestKeyPackingQuick(t *testing.T) {
	f := func(x, y uint16, depth uint8, id uint32) bool {
		d := int(depth) % (geom.MaxDepth + 1)
		c := geom.MakeCode(geom.Pt(int32(x)%geom.WorldSize, int32(y)%geom.WorldSize), d)
		k := key(c, seg.ID(id))
		return keyCode(k) == c && keySeg(k) == seg.ID(id)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: every key of a block (and of blocks nested inside it) falls
// inside the block's key range, and exact ranges nest inside block ranges.
func TestKeyRangeNestingQuick(t *testing.T) {
	f := func(x, y uint16, depth uint8, id uint32, q uint8) bool {
		d := int(depth) % geom.MaxDepth // leave room for a child
		c := geom.MakeCode(geom.Pt(int32(x)%geom.WorldSize, int32(y)%geom.WorldSize), d)
		lo, hi := blockRange(c)
		exLo, exHi := exactRange(c)
		if exLo < lo || exHi > hi {
			return false
		}
		k := key(c, seg.ID(id))
		if k < exLo || k >= exHi {
			return false
		}
		child := c.Child(int(q) % 4)
		ck := key(child, seg.ID(id))
		return ck >= lo && ck < hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// blockState classifies a block from the linear representation: a block is
// split when the first key in its range belongs to a deeper block;
// otherwise it is a leaf (possibly empty — empty leaves are not stored and
// are indistinguishable from undecomposed space, which is harmless).
func (t *Tree) blockState(c geom.Code) (split bool, err error) {
	lo, hi := blockRange(c)
	exLo, exHi := exactRange(c)
	var firstKey uint64
	found := false
	err = t.bt.Scan(lo, hi, func(k uint64) bool {
		firstKey = k
		found = true
		return false
	}, nil)
	if err != nil {
		return false, err
	}
	if !found {
		return false, nil
	}
	return firstKey < exLo || firstKey >= exHi, nil
}

// leavesForDescent is the straightforward top-down reference
// implementation of leavesFor, retained as the oracle for the
// differential tests.
func (t *Tree) leavesForDescent(s geom.Segment) ([]geom.Code, error) {
	var out []geom.Code
	var walk func(c geom.Code) error
	walk = func(c geom.Code) error {
		split, err := t.blockState(c)
		if err != nil {
			return err
		}
		if !split {
			out = append(out, c)
			return nil
		}
		for q := 0; q < 4; q++ {
			child := c.Child(q)
			if touches(child, s) {
				if err := walk(child); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if !geom.World().IntersectsSegment(s) {
		return nil, fmt.Errorf("pmr: segment %v outside the world", s)
	}
	if err := walk(geom.RootCode()); err != nil {
		return nil, err
	}
	return out, nil
}
