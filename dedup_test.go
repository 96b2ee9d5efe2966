package segdb

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"segdb/internal/geom"
	"segdb/internal/tiger"
)

// TestDedupAfterLargeWindow runs, on every structure that stores a
// segment more than once, a whole-world window and then a fixed mix of
// small windows, k-NN, incident and polygon queries, each from a cold
// cache. Every answer must equal a linear scan of the map (no duplicate,
// no segment missing), and every query's stats must equal those of the
// same query on a database that never ran the large window: the pooled
// duplicate-suppression set the large window grew must come back empty,
// and must cost no later query anything it did not add.
func TestDedupAfterLargeWindow(t *testing.T) {
	tm, err := tiger.Generate(countsSpec)
	if err != nil {
		t.Fatal(err)
	}
	m := &MapData{Name: countsSpec.Name, Class: "rural", Segments: tm.Segments}
	segs := m.Segments
	rng := rand.New(rand.NewSource(43))
	pt := func() Point { return Pt(rng.Int31n(WorldSize), rng.Int31n(WorldSize)) }
	type query struct {
		kind string // window, knn, incident or polygon
		r    Rect
		p    Point
		k    int
	}
	var queries []query
	for i := 0; i < 200; i++ {
		p, side := pt(), 16+rng.Int31n(1024)
		queries = append(queries,
			query{kind: "window", r: RectOf(p.X, p.Y, min(p.X+side, WorldSize-1), min(p.Y+side, WorldSize-1))},
			query{kind: "knn", p: pt(), k: 1 + i%8},
			query{kind: "incident", p: segs[rng.Intn(len(segs))].P1})
		if i%20 == 0 {
			queries = append(queries, query{kind: "polygon", p: pt()})
		}
	}
	// The linear-scan model: the ascending ids meeting the window or
	// ending at the point, the k least distances.
	var dbIDs []SegmentID // the database id of each map segment
	scan := func(q query) ([]SegmentID, []float64) {
		var ids []SegmentID
		var dists []float64
		for i, s := range segs {
			switch {
			case q.kind == "window" && q.r.IntersectsSegment(s),
				q.kind == "incident" && s.HasEndpoint(q.p):
				ids = append(ids, dbIDs[i])
			case q.kind == "knn":
				dists = append(dists, geom.DistSqPointSegment(q.p, s))
			}
		}
		slices.Sort(ids)
		sort.Float64s(dists)
		return ids, dists[:min(len(dists), q.k)]
	}
	// run answers q from a cold cache: ids sorted (duplicates kept),
	// distances in answer order.
	run := func(t *testing.T, db *DB, q query) ([]SegmentID, []float64, QueryStats) {
		t.Helper()
		if err := db.DropCaches(); err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		var ids []SegmentID
		var dists []float64
		var st QueryStats
		var err error
		visit := func(id SegmentID, _ Segment) bool { ids = append(ids, id); return true }
		switch q.kind {
		case "window":
			st, err = db.WindowCtx(ctx, q.r, visit)
		case "incident":
			st, err = db.IncidentAtCtx(ctx, q.p, visit)
		case "knn":
			var res []NearestResult
			res, st, err = db.NearestKAppendCtx(ctx, q.p, q.k, nil)
			for _, r := range res {
				ids = append(ids, r.ID)
				dists = append(dists, r.DistSq)
			}
		case "polygon":
			var poly Polygon
			poly, st, err = db.EnclosingPolygonCtx(ctx, q.p)
			ids = poly.IDs
		}
		if err != nil {
			t.Fatalf("%s %+v: %v", q.kind, q, err)
		}
		if q.kind != "polygon" {
			slices.Sort(ids)
		}
		st.Wall = 0
		return ids, dists, st
	}
	for _, c := range []struct {
		name string
		kind Kind
		opts []Option
	}{
		{"R+", RPlusTree, nil},
		{"k-d-B", KDBTree, nil},
		{"PMR", PMRQuadtree, nil},
		{"PMR-StoreMBR", PMRQuadtree, []Option{WithPMRStoreMBR(true)}},
		{"grid", UniformGrid, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			open := func() *DB {
				db, err := Open(c.kind, append([]Option{WithPoolPages(16)}, c.opts...)...)
				if err != nil {
					t.Fatal(err)
				}
				if dbIDs, err = db.AddBatch(m.Segments); err != nil {
					t.Fatal(err)
				}
				return db
			}
			fresh, used := open(), open()
			type answer struct {
				ids []SegmentID
				st  QueryStats
			}
			want := make([]answer, len(queries))
			for i, q := range queries {
				ids, _, st := run(t, fresh, q)
				want[i] = answer{ids, st}
			}
			world, _, _ := run(t, used, query{kind: "window", r: RectOf(0, 0, WorldSize-1, WorldSize-1)})
			if distinct := len(slices.Compact(slices.Clone(world))); len(world) != len(segs) || distinct != len(segs) {
				t.Fatalf("whole-world window: %d answers (%d distinct), want %d", len(world), distinct, len(segs))
			}
			for i, q := range queries {
				ids, dists, st := run(t, used, q)
				what := fmt.Sprintf("query %d (%s %+v)", i, q.kind, q)
				wantIDs, wantDists := scan(q)
				switch q.kind {
				case "knn":
					if len(dists) != len(wantDists) {
						t.Fatalf("%s: %d neighbours, want %d", what, len(dists), len(wantDists))
					}
					for j := range dists {
						if math.Abs(dists[j]-wantDists[j]) > 1e-6*math.Max(1, wantDists[j]) {
							t.Fatalf("%s: distance %d is %v, scan says %v", what, j, dists[j], wantDists[j])
						}
					}
					if len(slices.Compact(slices.Clone(ids))) != len(ids) {
						t.Fatalf("%s: a neighbour repeats: %v", what, ids)
					}
				case "polygon":
					if len(ids) == 0 {
						t.Fatalf("%s: empty polygon", what)
					}
				default:
					if !slices.Equal(ids, wantIDs) {
						t.Fatalf("%s: got %v, scan says %v", what, ids, wantIDs)
					}
				}
				if !slices.Equal(ids, want[i].ids) {
					t.Fatalf("%s: got %v, a database without the large window answers %v", what, ids, want[i].ids)
				}
				if st != want[i].st {
					t.Fatalf("%s: stats %+v, a database without the large window charges %+v", what, st, want[i].st)
				}
			}
		})
	}
}
