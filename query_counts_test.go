package segdb

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"segdb/internal/tiger"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata/*.golden files of the tests that run")

// countsSpec is a 4,175-segment rural county: 66 table pages, so a 16-page
// table pool evicts on every query and a 2-page one on nearly every
// fetch that leaves its page.
var countsSpec = tiger.Spec{
	Name: "counts", Kind: tiger.Rural, Seed: 23,
	Lattice: 9, SubdivMin: 22, SubdivMax: 30, DeleteFrac: 0.15,
}

// TestQueryCountsGolden pins every counter a query charges, per query
// and in total, for all six kinds × page compression 0/1 × in-place and
// staged ingest × a 16-page and a 2-page pool (3 pages under the B+-tree
// kinds): the five queries of the
// paper, k-NN, a WindowBatch and an Overlay self-join (which
// nests an inner traversal in the outer one's visitor in staged mode),
// then a few writes. A change below the indexes — how a segment is
// fetched, how the pool serves a hit — must leave this file untouched;
// regenerate it with -update only for a change that means to move a
// count, and say so.
func TestQueryCountsGolden(t *testing.T) {
	tm, err := tiger.Generate(countsSpec)
	if err != nil {
		t.Fatal(err)
	}
	m := &MapData{Name: countsSpec.Name, Class: "rural", Segments: tm.Segments}
	var out bytes.Buffer
	for _, kind := range allKinds() {
		// The smallest pool the kind can be built in: a B+-tree split
		// holds three frames pinned, an R-tree insert never more than two.
		small := 2
		if kind == PMRQuadtree || kind == UniformGrid {
			small = 3
		}
		for _, level := range []int{0, 1} {
			for _, staged := range []bool{false, true} {
				for _, pages := range []int{16, small} {
					mode := "inplace"
					if staged {
						mode = "staged"
					}
					fmt.Fprintf(&out, "== %v level%d %s pool%d\n", kind, level, mode, pages)
					queryCounts(t, &out, m, kind, level, staged, pages)
				}
			}
		}
	}
	matchGolden(t, "testdata/query_counts.golden", out.Bytes())
}

// matchGolden compares out with the golden file at path line by line,
// naming the first line that moved and the "== " section it is in; with
// -update it rewrites the file instead.
func matchGolden(t *testing.T, path string, out []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(out, want) {
		return
	}
	got, exp := strings.Split(string(out), "\n"), strings.Split(string(want), "\n")
	section := ""
	for i := 0; i < len(got) && i < len(exp); i++ {
		if strings.HasPrefix(got[i], "== ") {
			section = got[i]
		}
		if got[i] != exp[i] {
			t.Fatalf("%s moved at line %d (%s):\n got  %s\n want %s", path, i+1, section, got[i], exp[i])
		}
	}
	t.Fatalf("%s moved: %d lines, golden has %d", path, len(got), len(exp))
}

// queryCounts builds one configuration, replays the fixed stream and
// writes one line per query (reads/writes/hits/requests/segment
// comparisons/node computations, then the answer's size) and the final
// Metrics.
func queryCounts(t *testing.T, out *bytes.Buffer, m *MapData, kind Kind, level int, staged bool, pages int) {
	t.Helper()
	opts := []Option{WithPoolPages(pages), WithPageCompression(level)}
	if staged {
		opts = append(opts, WithStagedIngest())
	}
	db, err := Open(kind, opts...)
	if err != nil {
		t.Fatal(err)
	}
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%v level%d staged=%v pool%d: %v", kind, level, staged, pages, err)
		}
	}
	rng := rand.New(rand.NewSource(1992))
	segs := m.Segments
	var ids []SegmentID
	if staged {
		// A compacted base under a live staging tier: some staged adds,
		// some memtable deletes, some base tombstones.
		base := len(segs) * 3 / 4
		ids, err = db.AddBatch(segs[:base])
		check(err)
		for _, s := range segs[base:] {
			id, err := db.Add(s)
			check(err)
			ids = append(ids, id)
		}
		for i := 0; i < 12; i++ {
			check(db.Delete(ids[i*97]))
			check(db.Delete(ids[base+i*31]))
		}
	} else {
		ids, err = db.Load(m)
		check(err)
	}
	ctx := context.Background()
	n := 0
	visit := func(SegmentID, Segment) bool { n++; return true }
	line := func(name string, st QueryStats) {
		fmt.Fprintf(out, "%s %d/%d/%d/%d/%d/%d n=%d\n", name,
			st.DiskReads, st.DiskWrites, st.PoolHits, st.PoolRequests, st.SegComps, st.NodeComps, n)
		n = 0
	}
	pt := func() Point { return Pt(rng.Int31n(WorldSize), rng.Int31n(WorldSize)) }
	rect := func() Rect {
		p, side := pt(), 64+rng.Int31n(1024)
		return RectOf(p.X, p.Y, min(p.X+side, WorldSize-1), min(p.Y+side, WorldSize-1))
	}
	for i := 0; i < 8; i++ {
		si := rng.Intn(len(segs))
		st, err := db.IncidentAtCtx(ctx, segs[si].P2, visit)
		check(err)
		line("incident", st)
		st, err = db.OtherEndpointCtx(ctx, ids[si], segs[si].P1, visit)
		check(err)
		line("otherend", st)
		res, st, err := db.NearestCtx(ctx, pt())
		check(err)
		if res.Found {
			n = 1
		}
		line("nearest", st)
		poly, st, err := db.EnclosingPolygonCtx(ctx, pt())
		check(err)
		n = poly.Size()
		line("polygon", st)
		st, err = db.WindowCtx(ctx, rect(), visit)
		check(err)
		line("window", st)
		nn, st, err := db.NearestKCtx(ctx, pt(), []int{1, 5, 10}[i%3])
		check(err)
		n = len(nn)
		line("knn", st)
	}
	rects := make([]Rect, 6)
	for i := range rects {
		rects[i] = rect()
	}
	perRect := make([]int, len(rects))
	stats, err := db.WindowBatchCtx(ctx, rects, func(q int, _ SegmentID, _ Segment) bool { perRect[q]++; return true })
	check(err)
	for q, st := range stats {
		n = perRect[q]
		line("batch", st)
	}
	st, err := db.OverlayCtx(ctx, db, func(_, _ SegmentID, _, _ Segment) bool { n++; return true })
	check(err)
	line("overlay", st)
	// Writes after the reads: the index's own segment fetches (deletes
	// look their segment up, splits re-read their members) and the
	// appends beside them are in the totals below.
	for i := 0; i < 16; i++ {
		si := 300 + i*53
		check(db.Delete(ids[si]))
		_, err := db.Add(segs[si])
		check(err)
		st, err := db.WindowCtx(ctx, segs[si].Bounds(), visit)
		check(err)
		line("rewindow", st)
	}
	fmt.Fprintf(out, "metrics %+v\n", db.Metrics())
}
