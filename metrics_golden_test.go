package segdb

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// TestBulkBuildImageGolden pins the saved image of a bulk build over the
// whole Charles map for six kinds × page compression 0/1: the SHA-256 of
// each Save. A change to how a build is costed or driven must leave every
// page byte where it was; regenerate with -update only for a change that
// means to move the on-disk layout.
func TestBulkBuildImageGolden(t *testing.T) {
	m, err := GenerateCounty("Charles")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	for _, kind := range allKinds() {
		for _, level := range []int{0, 1} {
			db, err := Open(kind, WithPageCompression(level))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := db.AddBatch(m.Segments); err != nil {
				t.Fatalf("%v level%d: %v", kind, level, err)
			}
			h := sha256.New()
			if err := db.Save(h); err != nil {
				t.Fatalf("%v level%d: %v", kind, level, err)
			}
			fmt.Fprintf(&out, "%v level%d %x\n", kind, level, h.Sum(nil))
		}
	}
	matchGolden(t, "testdata/bulk_images.golden", out.Bytes())
}

// TestIncrementalImageGolden pins the saved image of a one-at-a-time
// build over the whole Charles map, and of the same database after every
// 7th segment is deleted, for the two kinds that sit on the B+-tree (PMR
// quadtree, uniform grid) and the two that split by a cut line (R+-tree,
// k-d-B-tree) × page compression 0/1. The inserts exercise leaf and
// internal splits; the deletes exercise borrows, merges and root collapse
// on the B+-tree. A change to the B+-tree's write path or to how an R+ or
// k-d-B split chooses its line must leave every page byte where it was.
func TestIncrementalImageGolden(t *testing.T) {
	m, err := GenerateCounty("Charles")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	for _, kind := range []Kind{PMRQuadtree, UniformGrid, RPlusTree, KDBTree} {
		for _, level := range []int{0, 1} {
			db, err := Open(kind, WithPageCompression(level))
			if err != nil {
				t.Fatal(err)
			}
			image := func(phase string) {
				h := sha256.New()
				if err := db.Save(h); err != nil {
					t.Fatalf("%v level%d %s: %v", kind, level, phase, err)
				}
				fmt.Fprintf(&out, "%v level%d %s %x\n", kind, level, phase, h.Sum(nil))
			}
			ids := make([]SegmentID, 0, len(m.Segments))
			for _, s := range m.Segments {
				id, err := db.Add(s)
				if err != nil {
					t.Fatalf("%v level%d: %v", kind, level, err)
				}
				ids = append(ids, id)
			}
			image("add")
			for i := 0; i < len(ids); i += 7 {
				if err := db.Delete(ids[i]); err != nil {
					t.Fatalf("%v level%d: delete %d: %v", kind, level, ids[i], err)
				}
			}
			image("delete")
		}
	}
	matchGolden(t, "testdata/incremental_images.golden", out.Bytes())
}

// TestMetricsHistoryGolden pins Metrics() after every phase of a fixed
// mixed workload for six kinds × in-place and staged ingest: one-at-a-time
// adds, windows, k-NN, incidence queries, deletes, an integrity check, a
// cache drop and more windows. No phase swaps the index (the staged tier
// stays under its compaction threshold), so the history is what every
// operation charged, in order.
func TestMetricsHistoryGolden(t *testing.T) {
	segs := bulkSample(t, 2000)
	var out bytes.Buffer
	for _, kind := range allKinds() {
		for _, staged := range []bool{false, true} {
			mode, opts := "inplace", []Option(nil)
			if staged {
				mode, opts = "staged", []Option{WithStagedIngest()}
			}
			fmt.Fprintf(&out, "== %v %s\n", kind, mode)
			metricsHistory(t, &out, kind, segs, opts)
		}
	}
	matchGolden(t, "testdata/metrics_history.golden", out.Bytes())
}

func metricsHistory(t *testing.T, out *bytes.Buffer, kind Kind, segs []Segment, opts []Option) {
	t.Helper()
	db, err := Open(kind, opts...)
	if err != nil {
		t.Fatal(err)
	}
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
	}
	phase := func(name string) {
		m := db.Metrics()
		fmt.Fprintf(out, "%-9s disk=%d seg=%d node=%d hits=%d requests=%d\n",
			name, m.DiskAccesses, m.SegComps, m.NodeComps, m.PoolHits, m.PoolRequests)
	}
	rng := rand.New(rand.NewSource(1992))
	pt := func() Point { return Pt(rng.Int31n(WorldSize), rng.Int31n(WorldSize)) }
	windows := func() {
		for i := 0; i < 100; i++ {
			p, side := pt(), 64+rng.Int31n(1024)
			check(db.Window(RectOf(p.X, p.Y, min(p.X+side, WorldSize-1), min(p.Y+side, WorldSize-1)),
				func(SegmentID, Segment) bool { return true }))
		}
	}
	ids := make([]SegmentID, 0, len(segs))
	for _, s := range segs {
		id, err := db.Add(s)
		check(err)
		ids = append(ids, id)
	}
	phase("add")
	windows()
	phase("window")
	for i := 0; i < 50; i++ {
		_, _, err := db.NearestKAppendCtx(context.Background(), pt(), 1+i%10, nil)
		check(err)
	}
	phase("nearestk")
	for i := 0; i < 20; i++ {
		_, err := db.IncidentAtCtx(context.Background(), segs[rng.Intn(len(segs))].P1, func(SegmentID, Segment) bool { return true })
		check(err)
	}
	phase("incident")
	for i := 0; i < len(ids); i += 50 {
		check(db.Delete(ids[i]))
	}
	phase("delete")
	check(db.CheckIntegrity().Err())
	phase("integrity")
	check(db.DropCaches())
	phase("drop")
	windows()
	phase("window")
}

// TestMetricsNeverRunBackwards holds Metrics() to being cumulative across
// the two calls that replace the index: a bulk merge (AddBatch on a
// non-empty in-place database) and a staged compaction. Every field of
// the snapshot after the swap is at least the one before it, for six
// kinds.
func TestMetricsNeverRunBackwards(t *testing.T) {
	segs := bulkSample(t, 1600)
	for _, kind := range allKinds() {
		for _, staged := range []bool{false, true} {
			opts := []Option(nil)
			if staged {
				opts = []Option{WithStagedIngest()}
			}
			db, err := Open(kind, opts...)
			if err != nil {
				t.Fatal(err)
			}
			first := 0 // one-at-a-time adds from here to 1500
			if staged {
				_, err = db.AddBatch(segs[:1000])
				first = 1000
			}
			for _, s := range segs[first:1500] {
				if err == nil {
					_, err = db.Add(s)
				}
			}
			for i := 0; err == nil && i < 100; i++ {
				err = db.Window(segs[i*7].Bounds(), func(SegmentID, Segment) bool { return true })
			}
			if err != nil {
				t.Fatalf("%v staged=%v: %v", kind, staged, err)
			}
			before := db.Metrics()
			if staged {
				err = db.Compact()
			} else {
				_, err = db.AddBatch(segs[1500:])
			}
			if err != nil {
				t.Fatalf("%v staged=%v: %v", kind, staged, err)
			}
			after := db.Metrics()
			b, a := reflect.ValueOf(before), reflect.ValueOf(after)
			for i := 0; i < b.NumField(); i++ {
				if a.Field(i).Uint() < b.Field(i).Uint() {
					t.Errorf("%v staged=%v: Metrics().%s ran backwards across the swap: %d -> %d",
						kind, staged, b.Type().Field(i).Name, b.Field(i).Uint(), a.Field(i).Uint())
				}
			}
		}
	}
}
