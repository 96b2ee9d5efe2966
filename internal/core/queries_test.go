package core_test

import (
	"math/rand"
	"sort"
	"testing"

	"segdb/internal/core"
	"segdb/internal/geom"
	"segdb/internal/grid"
	"segdb/internal/pmr"
	"segdb/internal/rplus"
	"segdb/internal/rstar"
	"segdb/internal/seg"
	"segdb/internal/store"
	"segdb/internal/tiger"
)

// buildAll indexes the same segments into all four structures, each with
// its own table (isolated counters) as in the experiments.
func buildAll(t *testing.T, segs []geom.Segment) []core.Index {
	t.Helper()
	var out []core.Index
	mk := func(f func(pool *store.Pool, tab *seg.Table) (core.Index, error)) {
		tab := seg.NewTable(1024, 16)
		pool := store.NewPool(store.NewDisk(1024), 16)
		ix, err := f(pool, tab)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range segs {
			id, err := tab.Append(s)
			if err != nil {
				t.Fatal(err)
			}
			if err := ix.Insert(id); err != nil {
				t.Fatalf("%s: insert: %v", ix.Name(), err)
			}
		}
		out = append(out, ix)
	}
	mk(func(p *store.Pool, tab *seg.Table) (core.Index, error) {
		return rstar.New(p, tab, rstar.DefaultConfig())
	})
	mk(func(p *store.Pool, tab *seg.Table) (core.Index, error) {
		return rstar.New(p, tab, rstar.GuttmanConfig())
	})
	mk(func(p *store.Pool, tab *seg.Table) (core.Index, error) {
		return rplus.New(p, tab, rplus.DefaultConfig())
	})
	mk(func(p *store.Pool, tab *seg.Table) (core.Index, error) { return rplus.New(p, tab, rplus.KDBConfig()) })
	mk(func(p *store.Pool, tab *seg.Table) (core.Index, error) { return pmr.New(p, tab, pmr.DefaultConfig()) })
	mk(func(p *store.Pool, tab *seg.Table) (core.Index, error) {
		cfg := pmr.DefaultConfig()
		cfg.StoreMBR = true
		return pmr.New(p, tab, cfg)
	})
	mk(func(p *store.Pool, tab *seg.Table) (core.Index, error) { return grid.New(p, tab, grid.DefaultConfig()) })
	return out
}

// smallMap generates a reduced county for cross-structure testing.
func smallMap(t *testing.T, kind tiger.Kind) *tiger.Map {
	t.Helper()
	spec := tiger.Spec{Name: "test", Kind: kind, Seed: 7, Lattice: 10, SubdivMin: 2, SubdivMax: 4, DeleteFrac: 0.15}
	if kind == tiger.Rural {
		spec.SubdivMin, spec.SubdivMax = 8, 12
	}
	m, err := tiger.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := tiger.CheckPlanar(m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestIncidentAtAgreesAcrossStructures(t *testing.T) {
	m := smallMap(t, tiger.Suburban)
	indexes := buildAll(t, m.Segments)
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 100; trial++ {
		s := m.Segments[rng.Intn(len(m.Segments))]
		p := s.P1
		// Ground truth by linear scan.
		want := map[seg.ID]bool{}
		for i, o := range m.Segments {
			if o.HasEndpoint(p) {
				want[seg.ID(i)] = true
			}
		}
		for _, ix := range indexes {
			got := map[seg.ID]bool{}
			err := core.IncidentAtObs(ix, p, func(id seg.ID, _ geom.Segment) bool {
				got[id] = true
				return true
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: IncidentAt(%v) found %d, want %d", ix.Name(), p, len(got), len(want))
			}
			for id := range want {
				if !got[id] {
					t.Fatalf("%s: IncidentAt(%v) missing %d", ix.Name(), p, id)
				}
			}
		}
	}
}

func TestOtherEndpointQuery(t *testing.T) {
	m := smallMap(t, tiger.Suburban)
	indexes := buildAll(t, m.Segments)
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 50; trial++ {
		i := rng.Intn(len(m.Segments))
		s := m.Segments[i]
		other := s.P2 // querying with P1 means "find who touches P2"
		want := map[seg.ID]bool{}
		for j, o := range m.Segments {
			if o.HasEndpoint(other) {
				want[seg.ID(j)] = true
			}
		}
		for _, ix := range indexes {
			got := map[seg.ID]bool{}
			err := core.OtherEndpointObs(ix, seg.ID(i), s.P1, func(id seg.ID, _ geom.Segment) bool {
				got[id] = true
				return true
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: OtherEndpoint(%d) found %d, want %d", ix.Name(), i, len(got), len(want))
			}
		}
	}
	// Querying with a point that is not an endpoint fails.
	ix := indexes[0]
	if err := core.OtherEndpointObs(ix, 0, geom.Pt(-1, -1), func(seg.ID, geom.Segment) bool { return true }, nil); err == nil {
		t.Error("expected error for non-endpoint")
	}
}

func TestNearestAgreesAcrossStructures(t *testing.T) {
	m := smallMap(t, tiger.Rural)
	indexes := buildAll(t, m.Segments)
	rng := rand.New(rand.NewSource(63))
	for trial := 0; trial < 100; trial++ {
		p := geom.Pt(int32(rng.Intn(geom.WorldSize)), int32(rng.Intn(geom.WorldSize)))
		var first core.NearestResult
		for k, ix := range indexes {
			res, err := core.FirstNearestObs(ix, p, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Found {
				t.Fatalf("%s: nothing found", ix.Name())
			}
			if k == 0 {
				first = res
				continue
			}
			if res.DistSq != first.DistSq {
				t.Fatalf("%s: dist %v, %s says %v", ix.Name(), res.DistSq, indexes[0].Name(), first.DistSq)
			}
		}
	}
}

func TestWindowAgreesAcrossStructures(t *testing.T) {
	m := smallMap(t, tiger.Suburban)
	indexes := buildAll(t, m.Segments)
	rng := rand.New(rand.NewSource(64))
	for trial := 0; trial < 40; trial++ {
		// 0.01% of the area, as in the paper's range queries.
		side := int32(164)
		x := int32(rng.Intn(geom.WorldSize - int(side)))
		y := int32(rng.Intn(geom.WorldSize - int(side)))
		r := geom.RectOf(x, y, x+side, y+side)
		var firstIDs []seg.ID
		for k, ix := range indexes {
			ids, err := core.WindowQuery(ix, r)
			if err != nil {
				t.Fatal(err)
			}
			sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
			if k == 0 {
				firstIDs = ids
				continue
			}
			if len(ids) != len(firstIDs) {
				t.Fatalf("%s: %d results, %s had %d", ix.Name(), len(ids), indexes[0].Name(), len(firstIDs))
			}
			for i := range ids {
				if ids[i] != firstIDs[i] {
					t.Fatalf("%s: result %d differs", ix.Name(), i)
				}
			}
		}
	}
}

func TestEnclosingPolygonSquare(t *testing.T) {
	// Classic square with known answer.
	segs := []geom.Segment{
		geom.Seg(100, 100, 200, 100),
		geom.Seg(200, 100, 200, 200),
		geom.Seg(200, 200, 100, 200),
		geom.Seg(100, 200, 100, 100),
		// A second square elsewhere.
		geom.Seg(1000, 1000, 1100, 1000),
		geom.Seg(1100, 1000, 1100, 1100),
		geom.Seg(1100, 1100, 1000, 1100),
		geom.Seg(1000, 1100, 1000, 1000),
	}
	for _, ix := range buildAll(t, segs) {
		poly, err := core.EnclosingPolygonObs(ix, geom.Pt(150, 150), nil)
		if err != nil {
			t.Fatalf("%s: %v", ix.Name(), err)
		}
		if poly.Size() != 4 {
			t.Fatalf("%s: polygon size %d, want 4", ix.Name(), poly.Size())
		}
		want := map[seg.ID]bool{0: true, 1: true, 2: true, 3: true}
		for _, id := range poly.IDs {
			if !want[id] {
				t.Fatalf("%s: wrong polygon: includes segment %d", ix.Name(), id)
			}
		}
	}
}

func TestEnclosingPolygonWithDeadEnd(t *testing.T) {
	segs := []geom.Segment{
		geom.Seg(0, 0, 100, 0),
		geom.Seg(100, 0, 100, 50),
		geom.Seg(100, 50, 100, 100),
		geom.Seg(100, 100, 0, 100),
		geom.Seg(0, 100, 0, 0),
		geom.Seg(100, 50, 50, 50), // spur into the face
	}
	for _, ix := range buildAll(t, segs) {
		poly, err := core.EnclosingPolygonObs(ix, geom.Pt(30, 20), nil)
		if err != nil {
			t.Fatalf("%s: %v", ix.Name(), err)
		}
		// Boundary: 5 square-side segments + the spur twice = 7 edges.
		if poly.Size() != 7 {
			t.Fatalf("%s: polygon size %d, want 7 (%v)", ix.Name(), poly.Size(), poly.IDs)
		}
		spurCount := 0
		for _, id := range poly.IDs {
			if id == 5 {
				spurCount++
			}
		}
		if spurCount != 2 {
			t.Errorf("%s: spur appears %d times, want 2", ix.Name(), spurCount)
		}
	}
}

func TestEnclosingPolygonMatchesFaceDecomposition(t *testing.T) {
	// On a generated map, the polygon found through each index matches a
	// face of the in-memory decomposition: closed, consistent across all
	// four structures, and sized like the ground-truth faces.
	m := smallMap(t, tiger.Suburban)
	indexes := buildAll(t, m.Segments)
	stats, err := tiger.Faces(m)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(65))
	polySizes := 0
	trials := 0
	for trial := 0; trial < 30; trial++ {
		p := geom.Pt(
			int32(2000+rng.Intn(geom.WorldSize-4000)),
			int32(2000+rng.Intn(geom.WorldSize-4000)))
		var first []seg.ID
		for k, ix := range indexes {
			poly, err := core.EnclosingPolygonObs(ix, p, nil)
			if err != nil {
				t.Fatalf("%s: %v", ix.Name(), err)
			}
			ids := append([]seg.ID(nil), poly.IDs...)
			sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
			if k == 0 {
				first = ids
				polySizes += len(ids)
				trials++
				continue
			}
			if len(ids) != len(first) {
				t.Fatalf("%s: polygon size %d, %s had %d (point %v)",
					ix.Name(), len(ids), indexes[0].Name(), len(first), p)
			}
			for i := range ids {
				if ids[i] != first[i] {
					t.Fatalf("%s: polygon differs at %d (point %v)", ix.Name(), i, p)
				}
			}
		}
	}
	avg := float64(polySizes) / float64(trials)
	if avg > 4*stats.AvgSize+float64(stats.MaxSize) {
		t.Errorf("avg queried polygon %.1f wildly exceeds face stats avg %.1f max %d",
			avg, stats.AvgSize, stats.MaxSize)
	}
}

func TestMeasureDeltas(t *testing.T) {
	m := smallMap(t, tiger.Urban)
	ix := buildAll(t, m.Segments)[0]
	m1, err := core.Measure(ix, func() error {
		_, err := core.FirstNearestObs(ix, geom.Pt(4000, 4000), nil)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if m1.NodeComps == 0 || m1.SegComps == 0 {
		t.Errorf("metrics not advancing: %+v", m1)
	}
	// Metrics algebra.
	a := core.Metrics{DiskAccesses: 5, SegComps: 3, NodeComps: 10}
	b := core.Metrics{DiskAccesses: 2, SegComps: 1, NodeComps: 4}
	if a.Sub(b) != (core.Metrics{DiskAccesses: 3, SegComps: 2, NodeComps: 6}) {
		t.Error("Sub wrong")
	}
	if a.Add(b) != (core.Metrics{DiskAccesses: 7, SegComps: 4, NodeComps: 14}) {
		t.Error("Add wrong")
	}
}

func TestNearestKAgreesWithBruteForce(t *testing.T) {
	m := smallMap(t, tiger.Suburban)
	indexes := buildAll(t, m.Segments)
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 30; trial++ {
		p := geom.Pt(int32(rng.Intn(geom.WorldSize)), int32(rng.Intn(geom.WorldSize)))
		k := 1 + rng.Intn(12)
		// Brute-force k smallest distances.
		dists := make([]float64, len(m.Segments))
		for i, s := range m.Segments {
			dists[i] = geom.DistSqPointSegment(p, s)
		}
		sort.Float64s(dists)
		want := dists[:k]
		for _, ix := range indexes {
			got, err := ix.NearestKAppendObs(p, k, nil, nil)
			if err != nil {
				t.Fatalf("%s: %v", ix.Name(), err)
			}
			if len(got) != k {
				t.Fatalf("%s: got %d results, want %d", ix.Name(), len(got), k)
			}
			for i, r := range got {
				if r.DistSq != want[i] {
					t.Fatalf("%s trial %d: result %d dist %v, want %v", ix.Name(), trial, i, r.DistSq, want[i])
				}
				if i > 0 && got[i-1].DistSq > r.DistSq {
					t.Fatalf("%s: results not sorted", ix.Name())
				}
			}
		}
	}
}

func TestNearestKMoreThanAvailable(t *testing.T) {
	segs := []geom.Segment{
		geom.Seg(10, 10, 20, 20),
		geom.Seg(100, 100, 200, 200),
	}
	for _, ix := range buildAll(t, segs) {
		got, err := ix.NearestKAppendObs(geom.Pt(0, 0), 10, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", ix.Name(), err)
		}
		if len(got) != 2 {
			t.Fatalf("%s: got %d, want all 2", ix.Name(), len(got))
		}
	}
}

func TestNearestKZero(t *testing.T) {
	ix := buildAll(t, []geom.Segment{geom.Seg(1, 1, 2, 2)})[0]
	got, err := ix.NearestKAppendObs(geom.Pt(0, 0), 0, nil, nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("k=0: %v, %v", got, err)
	}
}
