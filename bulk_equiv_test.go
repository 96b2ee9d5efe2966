package segdb

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// bulkSample deterministically subsamples the Charles county map to n
// segments — small enough for six incremental builds, real enough (noded,
// planar, skewed) to exercise every decomposition path.
func bulkSample(t *testing.T, n int) []Segment {
	t.Helper()
	m, err := GenerateCounty("Charles")
	if err != nil {
		t.Fatal(err)
	}
	if n >= len(m.Segments) {
		return m.Segments
	}
	segs := make([]Segment, 0, n)
	stride := len(m.Segments) / n
	for i := 0; i < n; i++ {
		segs = append(segs, m.Segments[i*stride])
	}
	return segs
}

// buildBulkAndIncremental builds the same segment set twice: per-segment
// insertion and AddBatch.
func buildBulkAndIncremental(t *testing.T, kind Kind, segs []Segment) (inc, blk *DB) {
	t.Helper()
	inc, err := Open(kind)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range segs {
		if _, err := inc.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	blk, err = Open(kind)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := blk.AddBatch(segs)
	if err != nil {
		t.Fatalf("%v: AddBatch: %v", kind, err)
	}
	if len(ids) != len(segs) || blk.Len() != len(segs) {
		t.Fatalf("%v: AddBatch returned %d ids, Len %d, want %d", kind, len(ids), blk.Len(), len(segs))
	}
	return inc, blk
}

func windowIDs(t *testing.T, db *DB, r Rect) []SegmentID {
	t.Helper()
	var ids []SegmentID
	if err := db.Window(r, func(id SegmentID, _ Segment) bool { ids = append(ids, id); return true }); err != nil {
		t.Fatal(err)
	}
	slices.Sort(ids)
	return ids
}

// TestBulkIncrementalEquivalence is the core correctness claim of the
// bulk pipeline: for every index kind, a bulk-built database answers the
// paper's queries identically to an incrementally built one, and both
// pass the full integrity check.
func TestBulkIncrementalEquivalence(t *testing.T) {
	segs := bulkSample(t, 1400)
	for _, kind := range allKinds() {
		inc, blk := buildBulkAndIncremental(t, kind, segs)

		for _, db := range []*DB{inc, blk} {
			if rep := db.CheckIntegrity(); !rep.Healthy() {
				t.Fatalf("%v: integrity: %v", kind, rep.Err())
			}
		}

		rng := rand.New(rand.NewSource(int64(kind) + 1))
		// Windows, from point-sized to map-sized.
		for trial := 0; trial < 30; trial++ {
			side := int32(1) << uint(rng.Intn(15))
			x := int32(rng.Intn(WorldSize))
			y := int32(rng.Intn(WorldSize))
			r := RectOf(x, y, min32(x+side, WorldSize-1), min32(y+side, WorldSize-1))
			a, b := windowIDs(t, inc, r), windowIDs(t, blk, r)
			if !slices.Equal(a, b) {
				t.Fatalf("%v window %v: incremental %d segments, bulk %d", kind, r, len(a), len(b))
			}
		}
		// Distance ranking.
		for trial := 0; trial < 25; trial++ {
			p := Pt(int32(rng.Intn(WorldSize)), int32(rng.Intn(WorldSize)))
			ra, _, err := inc.NearestKAppendCtx(context.Background(), p, 3, nil)
			if err != nil {
				t.Fatal(err)
			}
			rb, _, err := blk.NearestKAppendCtx(context.Background(), p, 3, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(ra) != len(rb) {
				t.Fatalf("%v nearest %v: %d vs %d results", kind, p, len(ra), len(rb))
			}
			for i := range ra {
				if ra[i].DistSq != rb[i].DistSq {
					t.Fatalf("%v nearest %v rank %d: dist %v vs %v", kind, p, i, ra[i].DistSq, rb[i].DistSq)
				}
			}
		}
		// Incidence at real endpoints.
		for trial := 0; trial < 20; trial++ {
			p := segs[rng.Intn(len(segs))].P1
			var a, b []SegmentID
			if _, err := inc.IncidentAtCtx(context.Background(), p, func(id SegmentID, _ Segment) bool { a = append(a, id); return true }); err != nil {
				t.Fatal(err)
			}
			if _, err := blk.IncidentAtCtx(context.Background(), p, func(id SegmentID, _ Segment) bool { b = append(b, id); return true }); err != nil {
				t.Fatal(err)
			}
			slices.Sort(a)
			slices.Sort(b)
			if !slices.Equal(a, b) {
				t.Fatalf("%v incident at %v: %v vs %v", kind, p, a, b)
			}
		}
		// Enclosing polygon, where the nearest seed is unique (an
		// equidistant seed pair may legitimately start different walks of
		// the same face).
		compared := 0
		for trial := 0; trial < 60 && compared < 10; trial++ {
			p := Pt(int32(rng.Intn(WorldSize)), int32(rng.Intn(WorldSize)))
			near, _, err := inc.NearestKAppendCtx(context.Background(), p, 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(near) < 2 || near[0].DistSq == near[1].DistSq {
				continue
			}
			pa, _, err := inc.EnclosingPolygonCtx(context.Background(), p)
			if err != nil {
				t.Fatal(err)
			}
			pb, _, err := blk.EnclosingPolygonCtx(context.Background(), p)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(pa.IDs, pb.IDs) {
				t.Fatalf("%v polygon at %v: %v vs %v", kind, p, pa.IDs, pb.IDs)
			}
			compared++
		}
	}
}

// TestBulkBuildDeterministic asserts the pipeline's determinism
// guarantee: the same batch produces a byte-identical saved image under
// any GOMAXPROCS setting. The builds run on the calling goroutine, so
// this pins that nothing in them reads the processor count.
func TestBulkBuildDeterministic(t *testing.T) {
	segs := bulkSample(t, 9000) // above the parallel-sort threshold
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, kind := range allKinds() {
		var first []byte
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			db, err := Open(kind)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := db.AddBatch(segs); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := db.Save(&buf); err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = buf.Bytes()
				continue
			}
			if !bytes.Equal(first, buf.Bytes()) {
				t.Fatalf("%v: saved image differs between GOMAXPROCS 1 and %d", kind, procs)
			}
		}
	}
}

// TestBulkPersistRoundTrip saves a bulk-built database of every kind in
// the unchanged SEGDB002 format and requires the reloaded copy to answer
// queries identically.
func TestBulkPersistRoundTrip(t *testing.T) {
	segs := bulkSample(t, 1200)
	for _, kind := range allKinds() {
		db, err := Open(kind)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.AddBatch(segs); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := db.Save(&buf); err != nil {
			t.Fatalf("%v: save: %v", kind, err)
		}
		restored, err := Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%v: load: %v", kind, err)
		}
		if restored.Kind() != kind || restored.Len() != db.Len() {
			t.Fatalf("%v: restored kind=%v len=%d", kind, restored.Kind(), restored.Len())
		}
		if rep := restored.CheckIntegrity(); !rep.Healthy() {
			t.Fatalf("%v: restored integrity: %v", kind, rep.Err())
		}
		rng := rand.New(rand.NewSource(77))
		for trial := 0; trial < 20; trial++ {
			x := int32(rng.Intn(WorldSize))
			y := int32(rng.Intn(WorldSize))
			r := RectOf(x, y, min32(x+2048, WorldSize-1), min32(y+2048, WorldSize-1))
			if a, b := windowIDs(t, db, r), windowIDs(t, restored, r); !slices.Equal(a, b) {
				t.Fatalf("%v window %v: %d vs %d results after reload", kind, r, len(a), len(b))
			}
			p := Pt(int32(rng.Intn(WorldSize)), int32(rng.Intn(WorldSize)))
			ra, _, _ := db.NearestCtx(context.Background(), p)
			rb, _, _ := restored.NearestCtx(context.Background(), p)
			if ra.DistSq != rb.DistSq {
				t.Fatalf("%v nearest %v: %v vs %v after reload", kind, p, ra.DistSq, rb.DistSq)
			}
		}
		// The reloaded bulk-built tree keeps accepting writes.
		if _, err := restored.Add(Seg(3, 3, 90, 90)); err != nil {
			t.Fatalf("%v: add after reload: %v", kind, err)
		}
	}
}

// TestAddBatchFallbackNonEmpty verifies the documented fallback: on a
// non-empty database AddBatch inserts incrementally and the result
// matches a database built entirely by Add.
func TestAddBatchFallbackNonEmpty(t *testing.T) {
	segs := bulkSample(t, 400)
	for _, kind := range allKinds() {
		ref, err := Open(kind)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range segs {
			if _, err := ref.Add(s); err != nil {
				t.Fatal(err)
			}
		}
		db, err := Open(kind)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.Add(segs[0]); err != nil {
			t.Fatal(err)
		}
		ids, err := db.AddBatch(segs[1:])
		if err != nil {
			t.Fatalf("%v: fallback AddBatch: %v", kind, err)
		}
		if len(ids) != len(segs)-1 || db.Len() != len(segs) {
			t.Fatalf("%v: fallback sizes: %d ids, Len %d", kind, len(ids), db.Len())
		}
		if rep := db.CheckIntegrity(); !rep.Healthy() {
			t.Fatalf("%v: fallback integrity: %v", kind, rep.Err())
		}
		rng := rand.New(rand.NewSource(5))
		for trial := 0; trial < 15; trial++ {
			x := int32(rng.Intn(WorldSize))
			y := int32(rng.Intn(WorldSize))
			r := RectOf(x, y, min32(x+4096, WorldSize-1), min32(y+4096, WorldSize-1))
			if a, b := windowIDs(t, ref, r), windowIDs(t, db, r); !slices.Equal(a, b) {
				t.Fatalf("%v window %v: %d vs %d results", kind, r, len(a), len(b))
			}
		}
	}
}

// TestAddBatchPacksAllKinds checks that AddBatch into an empty database
// packs every kind and agrees with the incremental build.
func TestAddBatchPacksAllKinds(t *testing.T) {
	segs := bulkSample(t, 600)
	m := &MapData{Name: "sample", Class: "test", Segments: segs}
	for _, kind := range allKinds() {
		inc, err := Open(kind)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := inc.Load(m); err != nil {
			t.Fatal(err)
		}
		blk, err := Open(kind)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := blk.AddBatch(m.Segments); err != nil {
			t.Fatalf("%v: AddBatch: %v", kind, err)
		}
		if rep := blk.CheckIntegrity(); !rep.Healthy() {
			t.Fatalf("%v: packed integrity: %v", kind, rep.Err())
		}
		rng := rand.New(rand.NewSource(21))
		for trial := 0; trial < 15; trial++ {
			x := int32(rng.Intn(WorldSize))
			y := int32(rng.Intn(WorldSize))
			r := RectOf(x, y, min32(x+4096, WorldSize-1), min32(y+4096, WorldSize-1))
			if a, b := windowIDs(t, inc, r), windowIDs(t, blk, r); !slices.Equal(a, b) {
				t.Fatalf("%v window %v: %d vs %d results", kind, r, len(a), len(b))
			}
		}
	}
}
