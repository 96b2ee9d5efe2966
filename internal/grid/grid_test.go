package grid

import (
	"math"
	"math/rand"
	"testing"

	"segdb/internal/core"
	"segdb/internal/geom"
	"segdb/internal/seg"
	"segdb/internal/store"
)

func newGrid(t *testing.T, cfg Config) (*Grid, *seg.Table) {
	t.Helper()
	table := seg.NewTable(1024, 16)
	g, err := New(store.NewPool(store.NewDisk(1024), 16), table, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g, table
}

func addSegs(t *testing.T, g *Grid, table *seg.Table, segs []geom.Segment) {
	t.Helper()
	for _, s := range segs {
		id, err := table.Append(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Insert(id, nil); err != nil {
			t.Fatal(err)
		}
	}
}

func randSegs(rng *rand.Rand, n int, maxLen int32) []geom.Segment {
	out := make([]geom.Segment, n)
	for i := range out {
		x := int32(rng.Intn(geom.WorldSize))
		y := int32(rng.Intn(geom.WorldSize))
		dx := int32(rng.Intn(int(2*maxLen+1))) - maxLen
		dy := int32(rng.Intn(int(2*maxLen+1))) - maxLen
		x2, y2 := x+dx, y+dy
		if x2 < 0 {
			x2 = 0
		}
		if y2 < 0 {
			y2 = 0
		}
		if x2 >= geom.WorldSize {
			x2 = geom.WorldSize - 1
		}
		if y2 >= geom.WorldSize {
			y2 = geom.WorldSize - 1
		}
		out[i] = geom.Seg(x, y, x2, y2)
	}
	return out
}

func TestBadResolution(t *testing.T) {
	table := seg.NewTable(1024, 16)
	if _, err := New(store.NewPool(store.NewDisk(1024), 16), table, Config{CellsPerSide: 0}); err == nil {
		t.Error("expected error for zero resolution")
	}
	if _, err := New(store.NewPool(store.NewDisk(1024), 16), table, Config{CellsPerSide: 100}); err == nil {
		t.Error("expected error for non-dividing resolution")
	}
}

func TestWindowExhaustive(t *testing.T) {
	g, table := newGrid(t, DefaultConfig())
	rng := rand.New(rand.NewSource(51))
	segs := randSegs(rng, 600, 500)
	addSegs(t, g, table, segs)
	for trial := 0; trial < 40; trial++ {
		r := geom.RectOf(
			int32(rng.Intn(geom.WorldSize)), int32(rng.Intn(geom.WorldSize)),
			int32(rng.Intn(geom.WorldSize)), int32(rng.Intn(geom.WorldSize)))
		got := map[seg.ID]bool{}
		err := g.WindowObs(r, func(id seg.ID, s geom.Segment) bool {
			if got[id] {
				t.Fatalf("segment %d twice", id)
			}
			got[id] = true
			return true
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range segs {
			if want := r.IntersectsSegment(s); got[seg.ID(i)] != want {
				t.Fatalf("trial %d seg %d: got %v want %v", trial, i, got[seg.ID(i)], want)
			}
		}
	}
}

func TestNearestMatchesBruteForce(t *testing.T) {
	g, table := newGrid(t, DefaultConfig())
	rng := rand.New(rand.NewSource(52))
	segs := randSegs(rng, 300, 400)
	addSegs(t, g, table, segs)
	for trial := 0; trial < 150; trial++ {
		p := geom.Pt(int32(rng.Intn(geom.WorldSize)), int32(rng.Intn(geom.WorldSize)))
		res, err := core.FirstNearestObs(g, p, nil)
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
			t.Fatalf("trial %d at %v: got %v found=%v, want %v", trial, p, res.DistSq, res.Found, best)
		}
	}
}

func TestNearestEmpty(t *testing.T) {
	g, _ := newGrid(t, DefaultConfig())
	res, err := core.FirstNearestObs(g, geom.Pt(0, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Error("found in empty grid")
	}
}

func TestNearestSparseCorners(t *testing.T) {
	// One segment at the far corner: the ring expansion must reach it
	// from the opposite corner.
	g, table := newGrid(t, DefaultConfig())
	addSegs(t, g, table, []geom.Segment{geom.Seg(16000, 16000, 16100, 16100)})
	res, err := core.FirstNearestObs(g, geom.Pt(0, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("not found")
	}
	want := geom.DistSqPointSegment(geom.Pt(0, 0), geom.Seg(16000, 16000, 16100, 16100))
	if res.DistSq != want {
		t.Errorf("dist = %v, want %v", res.DistSq, want)
	}
}

func TestDelete(t *testing.T) {
	g, table := newGrid(t, DefaultConfig())
	rng := rand.New(rand.NewSource(53))
	segs := randSegs(rng, 200, 800)
	addSegs(t, g, table, segs)
	for i := 0; i < 100; i++ {
		if err := g.Delete(seg.ID(i), nil); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	if g.Len() != 100 {
		t.Fatalf("Len = %d", g.Len())
	}
	got := map[seg.ID]bool{}
	g.WindowObs(geom.World(), func(id seg.ID, _ geom.Segment) bool {
		got[id] = true
		return true
	}, nil)
	for i := range segs {
		want := i >= 100
		if got[seg.ID(i)] != want {
			t.Fatalf("seg %d: present=%v want %v", i, got[seg.ID(i)], want)
		}
	}
	if err := g.Delete(seg.ID(0), nil); err != seg.ErrNotIndexed {
		t.Fatalf("double delete: %v", err)
	}
}

func TestSkewSensitivity(t *testing.T) {
	// The grid's q-edge count is insensitive to clustering, while storage
	// per occupied cell degrades: clustered data piles into few cells.
	rng := rand.New(rand.NewSource(54))
	uniform := randSegs(rng, 1000, 100)
	clustered := make([]geom.Segment, 1000)
	for i := range clustered {
		x := int32(1000 + rng.Intn(400))
		y := int32(1000 + rng.Intn(400))
		clustered[i] = geom.Seg(x, y, x+int32(rng.Intn(50)), y+int32(rng.Intn(50)))
	}
	build := func(segs []geom.Segment) *Grid {
		g, table := newGrid(t, DefaultConfig())
		addSegs(t, g, table, segs)
		return g
	}
	gu := build(uniform)
	gc := build(clustered)
	// Clustered occupies far fewer distinct cells.
	cellsOf := func(g *Grid) int {
		cells := map[uint64]bool{}
		lo, hi := uint64(0), uint64(math.MaxUint64)
		g.bt.Scan(lo, hi, func(k uint64) bool {
			cells[k>>32] = true
			return true
		}, nil)
		return len(cells)
	}
	if cu, cc := cellsOf(gu), cellsOf(gc); cc >= cu/4 {
		t.Errorf("clustered cells %d should be far fewer than uniform %d", cc, cu)
	}
}
