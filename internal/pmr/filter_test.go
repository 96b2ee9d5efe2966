package pmr

import (
	"context"
	"math/rand"
	"testing"

	"segdb/internal/geom"
	"segdb/internal/obs"
	"segdb/internal/seg"
)

// filterMembers must keep exactly the candidates whose stored rectangle
// intersects the query — the decision the scalar filter made per B-tree
// value — in scan order, with allPass sentinels always surviving, for
// any query rectangle including ones far outside the world grid.
func TestFilterMembersMatchesScalarDecision(t *testing.T) {
	rng := rand.New(rand.NewSource(307))
	queries := []geom.Rect{
		{Min: geom.Pt(-500, -500), Max: geom.Pt(-100, -100)}, // outside the world
		{Min: geom.Pt(0, 0), Max: geom.Pt(geom.WorldSize-1, geom.WorldSize-1)},
	}
	for i := 0; i < 30; i++ {
		x1, y1 := int32(rng.Intn(geom.WorldSize)), int32(rng.Intn(geom.WorldSize))
		w := int32(rng.Intn(4000))
		queries = append(queries, geom.Rect{Min: geom.Pt(x1, y1), Max: geom.Pt(x1+w, y1+w)})
	}
	for qi, q := range queries {
		for _, n := range []int{0, 1, 17, 63, 64, 65, 130} {
			members := make([]seg.ID, n)
			rects := make([]geom.Rect, n)
			ln := new(rectLanes)
			for i := 0; i < n; i++ {
				members[i] = seg.ID(i)
				if rng.Intn(10) == 0 {
					rects[i] = allPass
				} else {
					x, y := int32(rng.Intn(geom.WorldSize)), int32(rng.Intn(geom.WorldSize))
					s := int32(rng.Intn(800))
					rects[i] = geom.Rect{Min: geom.Pt(x, y), Max: geom.Pt(x+s, y+s)}
				}
				ln.push(rects[i])
			}
			var want []seg.ID
			for i := 0; i < n; i++ {
				if rects[i].Intersects(q) {
					want = append(want, members[i])
				}
			}
			got := filterMembers(members, ln, q)
			if len(got) != len(want) {
				t.Fatalf("query %d n=%d: kept %d, want %d", qi, n, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("query %d n=%d slot %d: kept %d, want %d (order broken)", qi, n, i, got[i], want[i])
				}
			}
		}
	}
}

// The StoreMBR window path must return the same visit set as the
// brute-force scan over the table, and its per-query stats must be
// deterministic: two cold runs of the same query charge identical disk
// and comparison counts (the batched filter changes neither).
func TestStoreMBRWindowDeterministicStats(t *testing.T) {
	rng := rand.New(rand.NewSource(311))
	cfg := DefaultConfig()
	cfg.StoreMBR = true
	e := newEnv(t, 1024, 16, cfg)
	for _, s := range randSegs(rng, 400, 300) {
		e.add(t, s)
	}
	coldRun := func(r geom.Rect) (map[seg.ID]geom.Segment, obs.Stats) {
		if err := e.tree.DropCache(); err != nil {
			t.Fatal(err)
		}
		if err := e.table.DropCache(); err != nil {
			t.Fatal(err)
		}
		got := make(map[seg.ID]geom.Segment)
		o := obs.Begin(context.Background(), nil, obs.QueryInfo{})
		if err := e.tree.WindowObs(r, func(id seg.ID, s geom.Segment) bool {
			got[id] = s
			return true
		}, o); err != nil {
			t.Fatal(err)
		}
		return got, o.Finish(nil)
	}
	for qi := 0; qi < 25; qi++ {
		x, y := int32(rng.Intn(geom.WorldSize)), int32(rng.Intn(geom.WorldSize))
		w := int32(rng.Intn(3000)) + 1
		r := geom.Rect{Min: geom.Pt(x, y), Max: geom.Pt(clamp(x+w, 0, geom.WorldSize-1), clamp(y+w, 0, geom.WorldSize-1))}
		got1, stats1 := coldRun(r)
		got2, stats2 := coldRun(r)
		want := make(map[seg.ID]bool)
		for i, s := range e.segs {
			if r.IntersectsSegment(s) {
				want[seg.ID(i)] = true
			}
		}
		if len(got1) != len(want) {
			t.Fatalf("query %d (%v): visited %d segments, brute force %d", qi, r, len(got1), len(want))
		}
		for id := range got1 {
			if !want[id] {
				t.Fatalf("query %d: visited %d, not in brute-force set", qi, id)
			}
		}
		if len(got2) != len(got1) {
			t.Fatalf("query %d: second cold run visited %d, first %d", qi, len(got2), len(got1))
		}
		stats1.Wall, stats2.Wall = 0, 0
		if stats1 != stats2 {
			t.Fatalf("query %d: cold stats differ between identical runs\nfirst:  %+v\nsecond: %+v", qi, stats1, stats2)
		}
	}
}
