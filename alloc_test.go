//go:build !race

// Allocation regression tests for the query hot paths. testing.AllocsPerRun
// is meaningless under the race detector (it instruments allocations), so
// this file is excluded from -race runs.

package segdb

import (
	"context"
	"fmt"
	"testing"

	"segdb/internal/geom"
)

// allocDB builds a warm database of the given kind and page-compression
// level whose working set fits the buffer pool, so repeated queries hit
// only warm code paths.
func allocDB(t *testing.T, kind Kind, level int) *DB {
	t.Helper()
	m, err := GenerateCounty("Charles")
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(kind, WithPoolPages(4096), WithPageCompression(level))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.LoadPacked(m); err != nil {
		t.Fatal(err)
	}
	return db
}

// forKinds runs body once per index kind at each level. Every kind reads
// its nodes from the pool's decode-once slots — the R-tree family through
// the shared rsearch traversal (the R+-tree and k-d-B-tree with the pooled
// duplicate set), the PMR quadtree and the grid through the B+-tree — so
// with the whole index resident no query decodes, and none may allocate.
func forKinds(t *testing.T, levels []int, body func(t *testing.T, db *DB)) {
	for _, kind := range allKinds() {
		for _, level := range levels {
			t.Run(fmt.Sprintf("%v/level%d", kind, level), func(t *testing.T) {
				body(t, allocDB(t, kind, level))
			})
		}
	}
}

// warmWindowZeroAllocs asserts a repeated WindowCtx allocates nothing
// once one warm-up pass has faulted the working set in and filled the
// pools.
func warmWindowZeroAllocs(t *testing.T, db *DB) {
	ctx := context.Background()
	r := geom.RectOf(2000, 2000, 6000, 6000)
	hits := 0
	visit := func(SegmentID, Segment) bool { hits++; return true }
	if _, err := db.WindowCtx(ctx, r, visit); err != nil {
		t.Fatal(err)
	}
	if hits == 0 {
		t.Fatal("window query found nothing; the assertion below would be vacuous")
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := db.WindowCtx(ctx, r, visit); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm WindowCtx allocates %.1f objects/query, want 0", allocs)
	}
}

// TestWindowCtxCompressedWarmZeroAllocs repeats the zero-alloc window
// assertion over compressed pages: the decode cache must absorb the
// wider compressed fanout without per-query allocation.
func TestWindowCtxCompressedWarmZeroAllocs(t *testing.T) {
	forKinds(t, []int{1}, warmWindowZeroAllocs)
}

func TestWindowCtxWarmZeroAllocs(t *testing.T) {
	forKinds(t, []int{0}, warmWindowZeroAllocs)
}

func TestWindowAppendCtxWarmZeroAllocs(t *testing.T) {
	forKinds(t, []int{0, 1}, func(t *testing.T, db *DB) {
		ctx := context.Background()
		r := geom.RectOf(2000, 2000, 6000, 6000)
		buf, _, err := db.WindowAppendCtx(ctx, r, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(buf) == 0 {
			t.Fatal("window query found nothing; the assertion below would be vacuous")
		}
		allocs := testing.AllocsPerRun(200, func() {
			var err error
			buf, _, err = db.WindowAppendCtx(ctx, r, buf[:0])
			if err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("warm WindowAppendCtx allocates %.1f objects/query, want 0", allocs)
		}
	})
}

func TestNearestKAppendCtxWarmAllocs(t *testing.T) {
	forKinds(t, []int{0, 1}, func(t *testing.T, db *DB) {
		ctx := context.Background()
		p := Point{X: 4000, Y: 4000}
		buf, _, err := db.NearestKAppendCtx(ctx, p, 8, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(buf) == 0 {
			t.Fatal("nearest query found nothing; the assertion below would be vacuous")
		}
		allocs := testing.AllocsPerRun(200, func() {
			var err error
			buf, _, err = db.NearestKAppendCtx(ctx, p, 8, buf[:0])
			if err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("warm NearestKAppendCtx allocates %.1f objects/query, want 0", allocs)
		}
	})
}

// TestPointQueriesWarmAllocs pins what the two queries built on nested
// point traversals allocate: IncidentAtCtx its one endpoint-filter
// closure, EnclosingPolygonCtx five closures per boundary edge (one
// IncidentAt and its filter per edge) plus the growth of its id list. A
// per-traversal allocation under them — a segment cursor whose page
// buffer was not recycled — would add one per edge.
func TestPointQueriesWarmAllocs(t *testing.T) {
	m, err := GenerateCounty("Charles")
	if err != nil {
		t.Fatal(err)
	}
	forKinds(t, []int{0}, func(t *testing.T, db *DB) {
		ctx := context.Background()
		end, inside := m.Segments[12345].P2, Point{X: 4000, Y: 4000}
		visit := func(SegmentID, Segment) bool { return true }
		poly, _, err := db.EnclosingPolygonCtx(ctx, inside)
		if err != nil || poly.Size() < 3 {
			t.Fatalf("polygon of %d edges, %v", poly.Size(), err)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := db.IncidentAtCtx(ctx, end, visit); err != nil {
				t.Fatal(err)
			}
		}); allocs > 1 {
			t.Errorf("warm IncidentAtCtx allocates %.1f objects/query, want 1", allocs)
		}
		if allocs := testing.AllocsPerRun(20, func() {
			if _, _, err := db.EnclosingPolygonCtx(ctx, inside); err != nil {
				t.Fatal(err)
			}
		}); allocs > float64(5*poly.Size()+16) {
			t.Errorf("warm EnclosingPolygonCtx of %d edges allocates %.0f objects, want at most 5 an edge + 16", poly.Size(), allocs)
		}
	})
}

// TestAddWarmAllocs bounds the garbage of a warm one-at-a-time Add. The
// R*-tree's insert path decodes into per-level scratch nodes and keeps
// its reinsertion queue, split sortings and ChooseSubtree lanes on the
// tree; the R+-tree's and k-d-B-tree's decode into per-depth scratch
// nodes and keep the split's members, candidate lines and sweep counts
// there. What is left is the rare split (a new node, a new root) and
// pool frames for new pages.
func TestAddWarmAllocs(t *testing.T) {
	m, err := GenerateCounty("Charles")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		kind   Kind
		max    float64
		before int // allocations per Add before the scratch state
	}{
		{RStarTree, 2, 19},
		{RPlusTree, 3, 22},
		{KDBTree, 3, 22},
	} {
		t.Run(tc.kind.String(), func(t *testing.T) {
			db, err := Open(tc.kind)
			if err != nil {
				t.Fatal(err)
			}
			const warm, runs = 5000, 2000
			for _, s := range m.Segments[:warm] {
				if _, err := db.Add(s); err != nil {
					t.Fatal(err)
				}
			}
			next := warm
			allocs := testing.AllocsPerRun(runs, func() {
				if _, err := db.Add(m.Segments[next]); err != nil {
					t.Fatal(err)
				}
				next++
			})
			if allocs > tc.max {
				t.Errorf("warm %v Add averages %.1f allocations, want at most %v (%d before the scratch state)", tc.kind, allocs, tc.max, tc.before)
			}
		})
	}
}
