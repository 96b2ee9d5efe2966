package rsearch_test

import (
	"math/rand"
	"testing"

	"segdb/internal/core"
	"segdb/internal/geom"
	"segdb/internal/rpage"
	"segdb/internal/rplus"
	"segdb/internal/rstar"
	"segdb/internal/seg"
	"segdb/internal/store"
)

// longSegs returns n segments up to maxLen long: on small pages each one
// crosses many leaf regions, so an R+-tree or k-d-B-tree stores it many
// times over.
func longSegs(rng *rand.Rand, n int, maxLen int32) []geom.Segment {
	segs := make([]geom.Segment, n)
	for i := range segs {
		x, y := int32(rng.Intn(geom.WorldSize)), int32(rng.Intn(geom.WorldSize))
		x2 := min(max(x+int32(rng.Intn(int(2*maxLen)))-maxLen, 0), geom.WorldSize-1)
		y2 := min(max(y+int32(rng.Intn(int(2*maxLen)))-maxLen, 0), geom.WorldSize-1)
		segs[i] = geom.Seg(x, y, x2, y2)
	}
	return segs
}

// leafEntries counts the leaf entries under page id, a node of the
// given level.
func leafEntries(t *testing.T, read func(store.PageID, int) (*rpage.Node, error), id store.PageID, level int) int {
	t.Helper()
	n, err := read(id, level)
	if err != nil {
		t.Fatal(err)
	}
	if n.Leaf {
		return len(n.Entries)
	}
	total := 0
	for _, e := range n.Entries {
		total += leafEntries(t, read, store.PageID(e.Ptr), level-1)
	}
	return total
}

// TestEachIDReportedOnce drives the shared traversal through every
// R-tree-family structure over a map of long segments: window and k-NN
// answers must name each qualifying segment exactly once, whether the
// structure duplicates segments across leaves (R+, k-d-B — the pooled
// seen set) or not (R*, R — no set at all).
func TestEachIDReportedOnce(t *testing.T) {
	const n = 400
	builders := map[string]func(*store.Pool, *seg.Table) (core.Index, error){
		"R+-tree": func(p *store.Pool, tb *seg.Table) (core.Index, error) {
			return rplus.New(p, tb, rplus.DefaultConfig())
		},
		"k-d-B-tree": func(p *store.Pool, tb *seg.Table) (core.Index, error) {
			return rplus.New(p, tb, rplus.KDBConfig())
		},
		"R*-tree": func(p *store.Pool, tb *seg.Table) (core.Index, error) {
			return rstar.New(p, tb, rstar.DefaultConfig())
		},
		"R-tree": func(p *store.Pool, tb *seg.Table) (core.Index, error) {
			return rstar.New(p, tb, rstar.GuttmanConfig())
		},
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(29))
			segs := longSegs(rng, n, 3000)
			table := seg.NewTable(512, 16)
			ix, err := build(store.NewPool(store.NewDisk(512), 16), table)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range segs {
				id, err := table.Append(s)
				if err != nil {
					t.Fatal(err)
				}
				if err := ix.Insert(id, nil); err != nil {
					t.Fatal(err)
				}
			}
			switch tr := ix.(type) {
			case *rplus.Tree:
				if got := leafEntries(t, tr.ReadNode, tr.Root, tr.Levels); got <= n {
					t.Fatalf("%d leaf entries for %d segments: nothing is duplicated, the test is vacuous", got, n)
				}
			case *rstar.Tree:
				if got := leafEntries(t, tr.ReadNode, tr.Root, tr.Levels); got != n {
					t.Fatalf("%d leaf entries for %d segments", got, n)
				}
			}

			windows := []geom.Rect{geom.World()}
			for i := 0; i < 30; i++ {
				x, y := int32(rng.Intn(geom.WorldSize)), int32(rng.Intn(geom.WorldSize))
				w := int32(rng.Intn(6000)) + 1
				windows = append(windows, geom.RectOf(x, y, min(x+w, geom.WorldSize-1), min(y+w, geom.WorldSize-1)))
			}
			for _, r := range windows {
				seen := map[seg.ID]int{}
				if err := ix.WindowObs(r, func(id seg.ID, _ geom.Segment) bool {
					seen[id]++
					return true
				}, nil); err != nil {
					t.Fatal(err)
				}
				want := 0
				for i, s := range segs {
					if !r.IntersectsSegment(s) {
						continue
					}
					want++
					if seen[seg.ID(i)] != 1 {
						t.Fatalf("window %v: segment %d reported %d times, want 1", r, i, seen[seg.ID(i)])
					}
				}
				if len(seen) != want {
					t.Fatalf("window %v: %d distinct ids reported, want %d", r, len(seen), want)
				}
			}

			for _, k := range []int{1, 25, n, n + 50} {
				p := geom.Pt(int32(rng.Intn(geom.WorldSize)), int32(rng.Intn(geom.WorldSize)))
				res, err := ix.NearestKAppendObs(p, k, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				if want := min(k, n); len(res) != want {
					t.Fatalf("k=%d: %d results, want %d", k, len(res), want)
				}
				seen := map[seg.ID]bool{}
				for i, r := range res {
					if seen[r.ID] {
						t.Fatalf("k=%d: segment %d ranked twice", k, r.ID)
					}
					seen[r.ID] = true
					if i > 0 && r.DistSq < res[i-1].DistSq {
						t.Fatalf("k=%d: result %d closer than result %d", k, i, i-1)
					}
				}
			}
		})
	}
}

// The structural walks decode through the tree's one node per level:
// once warm, with every page resident, AvgLeafOccupancy and Validate
// allocate nothing.
func TestNodeWalksAllocateNothing(t *testing.T) {
	type walker interface {
		core.Index
		AvgLeafOccupancy() (float64, error)
	}
	builders := map[string]func(*store.Pool, *seg.Table) (walker, error){
		"R*-tree": func(p *store.Pool, tb *seg.Table) (walker, error) {
			return rstar.New(p, tb, rstar.DefaultConfig())
		},
		"R+-tree": func(p *store.Pool, tb *seg.Table) (walker, error) {
			return rplus.New(p, tb, rplus.DefaultConfig())
		},
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			const pages = 4096
			table := seg.NewTable(512, pages)
			ix, err := build(store.NewPool(store.NewDisk(512), pages), table)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range longSegs(rand.New(rand.NewSource(30)), 2000, 500) {
				id, err := table.Append(s)
				if err != nil {
					t.Fatal(err)
				}
				if err := ix.Insert(id, nil); err != nil {
					t.Fatal(err)
				}
			}
			var walkErr error
			if a := testing.AllocsPerRun(10, func() {
				if _, err := ix.AvgLeafOccupancy(); err != nil {
					walkErr = err
				}
			}); a != 0 {
				t.Errorf("AvgLeafOccupancy: %.0f allocations per walk, want 0", a)
			}
			if a := testing.AllocsPerRun(10, func() {
				if err := ix.Validate(nil); err != nil {
					walkErr = err
				}
			}); a != 0 {
				t.Errorf("Validate: %.0f allocations per walk, want 0", a)
			}
			if walkErr != nil {
				t.Fatal(walkErr)
			}
		})
	}
}
