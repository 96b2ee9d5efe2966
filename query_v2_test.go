package segdb

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"maps"
	"testing"
	"time"
)

// TestQueryStatsSequential checks that on an otherwise idle database a
// single query's QueryStats equals the global counter delta on every
// field — including the interleaving-dependent disk reads, since there
// is no interleaving.
func TestQueryStatsSequential(t *testing.T) {
	m := stressMap(t)
	for _, k := range allKinds() {
		db, err := Open(k)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.Load(m); err != nil {
			t.Fatal(err)
		}
		if err := db.DropCaches(); err != nil {
			t.Fatal(err)
		}
		before := db.Metrics()
		st, err := db.WindowCtx(context.Background(), RectOf(1000, 1000, 9000, 9000), func(SegmentID, Segment) bool { return true })
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		delta := db.Metrics().Sub(before)
		if st.SegComps != delta.SegComps {
			t.Errorf("%v: SegComps %d != delta %d", k, st.SegComps, delta.SegComps)
		}
		if st.NodeComps != delta.NodeComps {
			t.Errorf("%v: NodeComps %d != delta %d", k, st.NodeComps, delta.NodeComps)
		}
		if st.PoolRequests != delta.PoolRequests {
			t.Errorf("%v: PoolRequests %d != delta %d", k, st.PoolRequests, delta.PoolRequests)
		}
		if st.PoolHits != delta.PoolHits {
			t.Errorf("%v: PoolHits %d != delta %d", k, st.PoolHits, delta.PoolHits)
		}
		if st.DiskAccesses() != delta.DiskAccesses {
			t.Errorf("%v: DiskAccesses %d != delta %d", k, st.DiskAccesses(), delta.DiskAccesses)
		}
		if st.PoolRequests != st.PoolHits+st.DiskReads {
			t.Errorf("%v: PoolRequests %d != hits %d + reads %d", k, st.PoolRequests, st.PoolHits, st.DiskReads)
		}
		if st.DiskReads == 0 {
			t.Errorf("%v: cold-cache window reported zero disk reads", k)
		}
		if st.Wall <= 0 {
			t.Errorf("%v: non-positive wall time %v", k, st.Wall)
		}
	}
}

// TestWindowCtxCancellation checks the acceptance criterion on a
// ~50k-segment county: a canceled context aborts the query before its
// next page fetch and surfaces the context's error.
func TestWindowCtxCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("county generation skipped in -short mode")
	}
	county, err := GenerateCounty("Charles")
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(RStarTree, WithPoolPages(256))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.LoadPacked(county); err != nil {
		t.Fatal(err)
	}

	// A context canceled before the query starts: not a single page may
	// be fetched, so on a cold cache the stats must show zero reads.
	if err := db.DropCaches(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	visits := 0
	st, err := db.WindowCtx(ctx, World(), func(SegmentID, Segment) bool {
		visits++
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled query returned %v, want context.Canceled", err)
	}
	if visits != 0 {
		t.Fatalf("pre-canceled query visited %d segments", visits)
	}
	if st.DiskReads != 0 || st.PoolHits != 0 {
		t.Fatalf("pre-canceled query fetched pages: %+v", st)
	}

	// Cancel mid-query from the visitor: the query must stop at its next
	// page fetch — no further segments are delivered, and the error is
	// the context's.
	total := 0
	if err := db.Window(World(), func(SegmentID, Segment) bool { total++; return true }); err != nil {
		t.Fatal(err)
	}
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	after := 0
	canceled := false
	st, err = db.WindowCtx(ctx, World(), func(SegmentID, Segment) bool {
		if canceled {
			after++
			return true
		}
		canceled = true
		cancel()
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-query cancel returned %v, want context.Canceled", err)
	}
	if after != 0 {
		t.Fatalf("query delivered %d segments after cancellation (of %d total)", after, total)
	}

	// An expired deadline surfaces as DeadlineExceeded.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, err := db.WindowCtx(dctx, World(), func(SegmentID, Segment) bool { return true }); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline returned %v, want context.DeadlineExceeded", err)
	}
}

// TestCtxQueryEquivalence checks every *Ctx method returns the same
// answers as its context-free wrapper (which delegates to it) and a
// non-trivial QueryStats.
func TestCtxQueryEquivalence(t *testing.T) {
	m := stressMap(t)
	db, err := Open(PMRQuadtree)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := db.Load(m)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	res, st, err := db.NearestCtx(ctx, Pt(5000, 5000))
	if err != nil || !res.Found {
		t.Fatalf("NearestCtx: %v found=%v", err, res.Found)
	}
	if st.PoolRequests == 0 {
		t.Fatal("NearestCtx reported no page requests")
	}
	legacy, err := db.Nearest(Pt(5000, 5000))
	if err != nil || legacy.ID != res.ID {
		t.Fatalf("Nearest disagrees with NearestCtx: %v vs %v (%v)", legacy.ID, res.ID, err)
	}

	resK, st, err := db.NearestKCtx(ctx, Pt(5000, 5000), 3)
	if err != nil || len(resK) != 3 {
		t.Fatalf("NearestKCtx: %v len=%d", err, len(resK))
	}
	if st.NodeComps == 0 {
		t.Fatal("NearestKCtx reported no bucket computations")
	}

	s0, err := db.Get(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	nIncident := 0
	if _, err := db.IncidentAtCtx(ctx, s0.P1, func(SegmentID, Segment) bool { nIncident++; return true }); err != nil {
		t.Fatal(err)
	}
	if nIncident == 0 {
		t.Fatal("IncidentAtCtx found nothing at a known endpoint")
	}
	nOther := 0
	if _, err := db.OtherEndpointCtx(ctx, ids[0], s0.P1, func(SegmentID, Segment) bool { nOther++; return true }); err != nil {
		t.Fatal(err)
	}

	poly, st, err := db.EnclosingPolygonCtx(ctx, Pt(8000, 8000))
	if err != nil {
		t.Fatal(err)
	}
	legacyPoly, err := db.EnclosingPolygon(Pt(8000, 8000))
	if err != nil || legacyPoly.Size() != poly.Size() {
		t.Fatalf("EnclosingPolygon disagrees with Ctx form: %d vs %d (%v)", legacyPoly.Size(), poly.Size(), err)
	}
	if st.SegComps == 0 {
		t.Fatal("EnclosingPolygonCtx reported no segment comparisons")
	}
}

// TestWindowBatchCtxStats checks the batch's per-rectangle
// stats sum to the global delta for the interleaving-independent totals
// and that context cancellation aborts the batch with the context's
// error.
func TestWindowBatchCtxStats(t *testing.T) {
	m := stressMap(t)
	db, err := Open(RStarTree)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.LoadPacked(m); err != nil {
		t.Fatal(err)
	}
	ops := stressOps(30, 99)
	var rects []Rect
	for _, op := range ops {
		if op.kind == 0 {
			rects = append(rects, op.rect)
		}
	}

	before := db.Metrics()
	stats, err := db.WindowBatchCtx(context.Background(), rects, func(int, SegmentID, Segment) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != len(rects) {
		t.Fatalf("got %d stats for %d rects", len(stats), len(rects))
	}
	delta := db.Metrics().Sub(before)
	var sum QueryStats
	for _, st := range stats {
		sum = sum.Add(st)
	}
	if sum.SegComps != delta.SegComps || sum.NodeComps != delta.NodeComps || sum.PoolRequests != delta.PoolRequests {
		t.Fatalf("batch stats sum %+v does not reconcile with global delta %+v", sum, delta)
	}

	// Context cancellation is an error (unlike a visitor stop).
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.WindowBatchCtx(ctx, rects, func(int, SegmentID, Segment) bool { return true }); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled batch returned %v, want context.Canceled", err)
	}
}

// overlayFixture loads the stress map into a database of kind ka and its
// second half into one of kind kb, so the two genuinely intersect. Fresh
// databases number segments in load order, so every kind pair reports
// the same IDs for the same pair.
func overlayFixture(t *testing.T, ka, kb Kind) (a, b *DB) {
	t.Helper()
	m := stressMap(t)
	m2 := &MapData{Name: "stress-b", Class: "rural", Segments: m.Segments[len(m.Segments)/2:]}
	a, err := Open(ka)
	if err != nil {
		t.Fatal(err)
	}
	b, err = Open(kb)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Load(m); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Load(m2); err != nil {
		t.Fatal(err)
	}
	return a, b
}

// TestOverlayCtx checks the v2 overlay returns a stats total covering
// the join, a nil error on visitor stop, and the context's error on
// cancellation.
func TestOverlayCtx(t *testing.T) {
	a, b := overlayFixture(t, RStarTree, UniformGrid)
	n := 0
	st, err := a.OverlayCtx(context.Background(), b, func(SegmentID, SegmentID, Segment, Segment) bool { n++; return true })
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("overlay found no pairs; bad fixture")
	}
	if st.SegComps == 0 || st.PoolRequests == 0 {
		t.Fatalf("empty overlay stats %+v", st)
	}

	// Visitor stop is a clean nil; context cancellation is an error.
	if _, err := a.OverlayCtx(context.Background(), b, func(SegmentID, SegmentID, Segment, Segment) bool { return false }); err != nil {
		t.Fatalf("visitor-stopped overlay: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := a.OverlayCtx(ctx, b, func(SegmentID, SegmentID, Segment, Segment) bool { return true }); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled overlay returned %v, want context.Canceled", err)
	}
}

// TestOverlayCtxPairSets checks the nested-loop join (R*×grid) and the
// merge join (PMR×PMR) find the same pair set, and that a visitor stop
// ends either join after exactly one call with a nil error.
func TestOverlayCtxPairSets(t *testing.T) {
	var want map[[2]SegmentID]bool
	for _, kinds := range [][2]Kind{{RStarTree, UniformGrid}, {PMRQuadtree, PMRQuadtree}} {
		a, b := overlayFixture(t, kinds[0], kinds[1])
		got := map[[2]SegmentID]bool{}
		if _, err := a.OverlayCtx(context.Background(), b, func(idA, idB SegmentID, _, _ Segment) bool {
			got[[2]SegmentID{idA, idB}] = true
			return true
		}); err != nil {
			t.Fatalf("%v/%v: %v", kinds[0], kinds[1], err)
		}
		if want == nil {
			if len(got) == 0 {
				t.Fatal("overlay found no pairs; bad fixture")
			}
			want = got
		} else if !maps.Equal(got, want) {
			t.Fatalf("%v/%v: %d pairs, the nested-loop join found %d", kinds[0], kinds[1], len(got), len(want))
		}

		calls := 0
		if _, err := a.OverlayCtx(context.Background(), b, func(SegmentID, SegmentID, Segment, Segment) bool {
			calls++
			return false
		}); err != nil || calls != 1 {
			t.Fatalf("%v/%v: stopped overlay made %d visits, err %v; want 1 visit, nil", kinds[0], kinds[1], calls, err)
		}
	}
}

// TestTracerJSONL runs traced queries and checks the JSONL stream has
// well-formed start/finish/fault events with matching query IDs.
func TestTracerJSONL(t *testing.T) {
	m := stressMap(t)
	var buf bytes.Buffer
	tr := NewJSONLTracer(&buf)
	db, err := Open(RStarTree, WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Load(m); err != nil {
		t.Fatal(err)
	}
	if err := db.DropCaches(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.WindowCtx(context.Background(), RectOf(0, 0, 4000, 4000), func(SegmentID, Segment) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.NearestCtx(context.Background(), Pt(100, 100)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}

	type event struct {
		Event string      `json:"event"`
		Query uint64      `json:"query"`
		Kind  string      `json:"kind"`
		Time  string      `json:"time"`
		Page  *uint32     `json:"page"`
		Stats *QueryStats `json:"stats"`
		Error string      `json:"error"`
	}
	counts := map[string]int{}
	kinds := map[string]bool{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var e event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		counts[e.Event]++
		kinds[e.Kind] = true
		if e.Time == "" || e.Query == 0 {
			t.Fatalf("event missing time/query: %q", sc.Text())
		}
		switch e.Event {
		case "page_fault":
			if e.Page == nil {
				t.Fatalf("page_fault without page: %q", sc.Text())
			}
		case "query_finish":
			if e.Stats == nil || e.Stats.PoolRequests == 0 {
				t.Fatalf("query_finish without stats: %q", sc.Text())
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if counts["query_start"] != 2 || counts["query_finish"] != 2 {
		t.Fatalf("want 2 start/finish events, got %v", counts)
	}
	if counts["page_fault"] == 0 || counts["node_visit"] == 0 {
		t.Fatalf("want page_fault and node_visit events on a cold cache, got %v", counts)
	}
	if !kinds["window"] || !kinds["nearest"] {
		t.Fatalf("want window and nearest kinds, got %v", kinds)
	}

	// SetTracer(nil) silences the stream.
	db.SetTracer(nil)
	mark := buf.Len()
	if err := db.Window(RectOf(0, 0, 100, 100), func(SegmentID, Segment) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != mark {
		t.Fatal("tracer removed but events still written")
	}
}

// TestProfile checks DB.Profile aggregates every query — v2 and legacy
// — per kind with plausible histograms.
func TestProfile(t *testing.T) {
	m := stressMap(t)
	db, err := Open(UniformGrid)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Load(m); err != nil {
		t.Fatal(err)
	}
	if p := db.Profile(); len(p.Queries) != 0 {
		t.Fatalf("profile not empty before any query: %+v", p)
	}
	for i := 0; i < 5; i++ {
		if err := db.Window(RectOf(0, 0, 6000, 6000), func(SegmentID, Segment) bool { return true }); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := db.NearestKCtx(context.Background(), Pt(200, 300), 2); err != nil {
		t.Fatal(err)
	}
	p := db.Profile()
	byKind := map[string]QueryKindProfile{}
	for _, q := range p.Queries {
		byKind[q.Kind] = q
	}
	w, ok := byKind["window"]
	if !ok || w.Count != 5 {
		t.Fatalf("window profile wrong: %+v", p)
	}
	if w.LatencyMicros.Count != 5 || w.DiskAccesses.Count != 5 {
		t.Fatalf("window histograms not recorded: %+v", w)
	}
	if w.Errors != 0 {
		t.Fatalf("unexpected window errors: %+v", w)
	}
	if _, ok := byKind["nearestk"]; !ok {
		t.Fatalf("nearestk missing from profile: %+v", p)
	}
	if q := w.LatencyMicros.Quantile(0.5); q == 0 && w.LatencyMicros.Mean() > 1 {
		t.Fatalf("median latency 0 with mean %v", w.LatencyMicros.Mean())
	}

	// Errors are counted: a canceled query folds into the kind's profile.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.WindowCtx(ctx, World(), func(SegmentID, Segment) bool { return true }); err == nil {
		t.Fatal("expected cancellation error")
	}
	for _, q := range db.Profile().Queries {
		if q.Kind == "window" && q.Errors != 1 {
			t.Fatalf("canceled window not counted as error: %+v", q)
		}
	}
}

// TestFunctionalOptions checks the Open signature, the nil option the
// pre-v2 Open(kind, nil) spelling passes, and option composition.
func TestFunctionalOptions(t *testing.T) {
	// Defaults.
	o := resolveOptions(nil)
	if o.PageSize != 1024 || o.PoolPages != 16 || o.PMRThreshold != 4 {
		t.Fatalf("bad defaults: %+v", o)
	}
	// Functional options compose left to right.
	o = resolveOptions([]Option{WithPageSize(2048), WithPoolPages(32), WithPageSize(512)})
	if o.PageSize != 512 || o.PoolPages != 32 {
		t.Fatalf("composition wrong: %+v", o)
	}
	// Nil options are skipped wherever they appear.
	o = resolveOptions([]Option{WithPageSize(4096), nil, WithPMRThreshold(8)})
	if o.PageSize != 4096 || o.PMRThreshold != 8 || o.PoolPages != 16 {
		t.Fatalf("nil option not skipped: %+v", o)
	}

	// All three call forms open working databases.
	for _, open := range []func() (*DB, error){
		func() (*DB, error) { return Open(UniformGrid) },
		func() (*DB, error) { return Open(UniformGrid, nil) },
		func() (*DB, error) { return Open(UniformGrid, WithPoolPages(8)) },
	} {
		db, err := open()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.Add(Seg(1, 1, 50, 50)); err != nil {
			t.Fatal(err)
		}
		n := 0
		if err := db.Window(World(), func(SegmentID, Segment) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		if n != 1 {
			t.Fatalf("window found %d segments, want 1", n)
		}
	}

	// WithFaultPolicy attaches at open: a policy failing every read makes
	// the first cold page fetch fail with an injected fault.
	pol := NewFaultPolicy(FaultConfig{ReadErrorProb: 1})
	db, err := Open(RStarTree, WithFaultPolicy(pol))
	if err != nil {
		t.Fatal(err)
	}
	opErr := func() error {
		if _, err := db.Add(Seg(1, 1, 50, 50)); err != nil {
			return err
		}
		if err := db.DropCaches(); err != nil {
			return err
		}
		return db.Window(World(), func(SegmentID, Segment) bool { return true })
	}()
	if opErr == nil {
		t.Fatal("fault policy attached via option injected no faults")
	}
	if !errors.Is(opErr, ErrInjectedFault) {
		t.Fatalf("got %v, want an injected fault", opErr)
	}
}

// TestColdWindowStats pins the query's own QueryStats: a cold window
// advances all three of the paper's counters, and hits never exceed
// requests.
func TestColdWindowStats(t *testing.T) {
	m := stressMap(t)
	db, err := Open(RStarTree)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Load(m); err != nil {
		t.Fatal(err)
	}
	if err := db.DropCaches(); err != nil {
		t.Fatal(err)
	}
	mt, err := db.WindowCtx(context.Background(), RectOf(0, 0, 8000, 8000), func(SegmentID, Segment) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if mt.DiskAccesses() == 0 || mt.SegComps == 0 || mt.NodeComps == 0 {
		t.Fatalf("cold window returned empty stats: %+v", mt)
	}
	if mt.PoolRequests < mt.PoolHits {
		t.Fatalf("requests %d < hits %d", mt.PoolRequests, mt.PoolHits)
	}
}
