package segdb

// Benchmarks mirroring every table and figure of the paper's evaluation
// (§6). Each benchmark regenerates the corresponding measurement on a
// reduced county (so iterations complete quickly) and reports the paper's
// metrics — disk accesses, segment comparisons, bounding box/bucket
// computations — via b.ReportMetric alongside wall-clock time. The
// full-size runs that EXPERIMENTS.md records come from cmd/experiments.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"segdb/internal/core"
	"segdb/internal/geom"
	"segdb/internal/harness"
	"segdb/internal/obs"
	"segdb/internal/pmr"
	"segdb/internal/rstar"
	"segdb/internal/seg"
	"segdb/internal/store"
	"segdb/internal/tiger"
)

// benchSpec is a mid-size rural county (~12k segments): large enough for
// height-3/4 structures, small enough to rebuild inside a benchmark loop.
var benchSpec = tiger.Spec{
	Name: "bench-rural", Kind: tiger.Rural, Seed: 4242,
	Lattice: 15, SubdivMin: 25, SubdivMax: 35, DeleteFrac: 0.2,
}

// benchUrbanSpec contrasts the distribution-sensitivity benchmarks.
var benchUrbanSpec = tiger.Spec{
	Name: "bench-urban", Kind: tiger.Urban, Seed: 4243,
	Lattice: 64, SubdivMin: 1, SubdivMax: 2, DeleteFrac: 0.1,
}

var (
	benchOnce   sync.Once
	benchMap    *tiger.Map
	benchUrban  *tiger.Map
	benchBuilt  map[harness.Structure]core.Index
	benchLoad   *harness.Workload
	benchSetupE error
)

func benchSetup(b *testing.B) (*tiger.Map, map[harness.Structure]core.Index, *harness.Workload) {
	b.Helper()
	benchOnce.Do(func() {
		benchMap, benchSetupE = tiger.Generate(benchSpec)
		if benchSetupE != nil {
			return
		}
		benchUrban, benchSetupE = tiger.Generate(benchUrbanSpec)
		if benchSetupE != nil {
			return
		}
		benchBuilt = make(map[harness.Structure]core.Index)
		for _, s := range harness.Core() {
			ix, _, err := harness.Build(s, benchMap, harness.DefaultOptions())
			if err != nil {
				benchSetupE = err
				return
			}
			benchBuilt[s] = ix
		}
		benchLoad, benchSetupE = harness.NewWorkload(
			benchMap, benchBuilt[harness.PMR].(*pmr.Tree), 512, 1234)
	})
	if benchSetupE != nil {
		b.Fatal(benchSetupE)
	}
	return benchMap, benchBuilt, benchLoad
}

// BenchmarkTable1Build regenerates Table 1's build statistics: one
// sub-benchmark per structure, reporting size and disk accesses.
func BenchmarkTable1Build(b *testing.B) {
	m, _, _ := benchSetup(b)
	for _, s := range harness.Core() {
		b.Run(s.String(), func(b *testing.B) {
			var last harness.BuildResult
			for i := 0; i < b.N; i++ {
				_, br, err := harness.Build(s, m, harness.DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				last = br
			}
			b.ReportMetric(float64(last.SizeBytes)/1024, "KB")
			b.ReportMetric(float64(last.DiskAccesses), "disk-accesses")
			b.ReportMetric(last.AvgLeafOccupancy, "segs/page")
		})
	}
}

// BenchmarkFigure6PageSweep regenerates Figure 6: build disk accesses as
// the page size and buffer pool vary, for the R+-tree and PMR quadtree.
func BenchmarkFigure6PageSweep(b *testing.B) {
	m, _, _ := benchSetup(b)
	for _, cfg := range []struct{ page, pool int }{
		{512, 8}, {1024, 16}, {2048, 32}, {4096, 64},
	} {
		for _, s := range []harness.Structure{harness.RPlus, harness.PMR} {
			b.Run(benchName(s.String(), cfg.page, cfg.pool), func(b *testing.B) {
				opts := harness.DefaultOptions()
				opts.PageSize = cfg.page
				opts.PoolPages = cfg.pool
				var acc uint64
				for i := 0; i < b.N; i++ {
					_, br, err := harness.Build(s, m, opts)
					if err != nil {
						b.Fatal(err)
					}
					acc = br.DiskAccesses
				}
				b.ReportMetric(float64(acc), "disk-accesses")
			})
		}
	}
}

func benchName(s string, page, pool int) string {
	return s + "/page=" + itoa(page) + "/pool=" + itoa(pool)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkTable2Queries regenerates Table 2: per-query cost of the seven
// query variants on each structure, reporting the paper's three counters
// per operation.
func BenchmarkTable2Queries(b *testing.B) {
	_, built, wl := benchSetup(b)
	type op func(ix core.Index, i int, o *obs.Op) error
	sink := func(SegmentID, Segment) bool { return true }
	ops := []struct {
		kind harness.QueryKind
		run  op
	}{
		{harness.Point1, func(ix core.Index, i int, o *obs.Op) error {
			return core.IncidentAtObs(ix, wl.EndpointPts[i%len(wl.EndpointPts)], sink, o)
		}},
		{harness.Point2, func(ix core.Index, i int, o *obs.Op) error {
			j := i % len(wl.EndpointSegs)
			return core.OtherEndpointObs(ix, wl.EndpointSegs[j], wl.EndpointPts[j], sink, o)
		}},
		{harness.Nearest2Stage, func(ix core.Index, i int, o *obs.Op) error {
			_, err := core.FirstNearestObs(ix, wl.TwoStage[i%len(wl.TwoStage)], o)
			return err
		}},
		{harness.Nearest1Stage, func(ix core.Index, i int, o *obs.Op) error {
			_, err := core.FirstNearestObs(ix, wl.OneStage[i%len(wl.OneStage)], o)
			return err
		}},
		{harness.Polygon2Stage, func(ix core.Index, i int, o *obs.Op) error {
			_, err := core.EnclosingPolygonObs(ix, wl.TwoStage[i%len(wl.TwoStage)], o)
			return err
		}},
		{harness.Polygon1Stage, func(ix core.Index, i int, o *obs.Op) error {
			_, err := core.EnclosingPolygonObs(ix, wl.OneStage[i%len(wl.OneStage)], o)
			return err
		}},
		{harness.Range, func(ix core.Index, i int, o *obs.Op) error {
			return ix.WindowObs(wl.Windows[i%len(wl.Windows)], sink, o)
		}},
	}
	for _, s := range harness.Core() {
		for _, o := range ops {
			b.Run(s.String()+"/"+o.kind.String(), func(b *testing.B) {
				ix := built[s]
				b.ResetTimer()
				d, err := core.Measure(ix, func(op *obs.Op) error {
					for i := 0; i < b.N; i++ {
						if err := o.run(ix, i, op); err != nil {
							return err
						}
					}
					return nil
				})
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				n := float64(b.N)
				b.ReportMetric(float64(d.DiskAccesses)/n, "disk-accesses/op")
				b.ReportMetric(float64(d.SegComps)/n, "seg-comps/op")
				b.ReportMetric(float64(d.NodeComps)/n, "bbox-comps/op")
			})
		}
	}
}

// measureNearest runs b.N first-nearest queries on ix over pts, in
// order and wrapping around, and returns what they cost. It stops the
// timer.
func measureNearest(b *testing.B, ix core.Index, pts []geom.Point) core.Metrics {
	d, err := core.Measure(ix, func(o *obs.Op) error {
		for i := 0; i < b.N; i++ {
			if _, err := core.FirstNearestObs(ix, pts[i%len(pts)], o); err != nil {
				return err
			}
		}
		return nil
	})
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkFigure7BBoxComputations regenerates Figure 7's quantity — the
// bounding box computations of the R-tree variants (with the PMR bucket
// computations reported for the two-orders-of-magnitude contrast the
// paper describes).
func BenchmarkFigure7BBoxComputations(b *testing.B) {
	_, built, wl := benchSetup(b)
	for _, s := range []harness.Structure{harness.RStar, harness.RPlus, harness.PMR} {
		b.Run(s.String(), func(b *testing.B) {
			ix := built[s]
			b.ResetTimer()
			d := measureNearest(b, ix, wl.TwoStage)
			b.ReportMetric(float64(d.NodeComps)/float64(b.N), "bbox-comps/op")
		})
	}
}

// BenchmarkFigure8DiskAccesses regenerates Figure 8's quantity — relative
// disk accesses per query, normalized offline against the PMR column.
func BenchmarkFigure8DiskAccesses(b *testing.B) {
	_, built, wl := benchSetup(b)
	for _, s := range harness.Core() {
		b.Run(s.String(), func(b *testing.B) {
			ix := built[s]
			b.ResetTimer()
			d, err := core.Measure(ix, func(o *obs.Op) error {
				for i := 0; i < b.N; i++ {
					if err := ix.WindowObs(wl.Windows[i%len(wl.Windows)], func(SegmentID, Segment) bool { return true }, o); err != nil {
						return err
					}
				}
				return nil
			})
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(d.DiskAccesses)/float64(b.N), "disk-accesses/op")
		})
	}
}

// BenchmarkFigure9SegmentComparisons regenerates Figure 9's quantity —
// segment comparisons per query (nearest-line, where the PMR quadtree's
// spatial sort gives it the paper's decisive advantage).
func BenchmarkFigure9SegmentComparisons(b *testing.B) {
	_, built, wl := benchSetup(b)
	for _, s := range harness.Core() {
		b.Run(s.String(), func(b *testing.B) {
			ix := built[s]
			b.ResetTimer()
			d := measureNearest(b, ix, wl.TwoStage)
			b.ReportMetric(float64(d.SegComps)/float64(b.N), "seg-comps/op")
		})
	}
}

// BenchmarkAblationThreshold sweeps the PMR splitting threshold (§3: as
// the threshold rises, storage falls and query work rises).
func BenchmarkAblationThreshold(b *testing.B) {
	m, _, wl := benchSetup(b)
	for _, th := range []int{2, 4, 16, 64} {
		b.Run("threshold="+itoa(th), func(b *testing.B) {
			opts := harness.DefaultOptions()
			opts.PMRThreshold = th
			ix, br, err := harness.Build(harness.PMR, m, opts)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			d := measureNearest(b, ix, wl.TwoStage)
			b.ReportMetric(float64(br.SizeBytes)/1024, "KB")
			b.ReportMetric(float64(d.SegComps)/float64(b.N), "seg-comps/op")
		})
	}
}

// BenchmarkAblationReinsert contrasts the R*-tree build with and without
// forced reinsertion (the "computationally expensive node overflow
// technique" of §6).
func BenchmarkAblationReinsert(b *testing.B) {
	m, _, _ := benchSetup(b)
	for _, disable := range []bool{false, true} {
		name := "reinsert-on"
		if disable {
			name = "reinsert-off"
		}
		b.Run(name, func(b *testing.B) {
			opts := harness.DefaultOptions()
			opts.DisableReinsert = disable
			var br harness.BuildResult
			for i := 0; i < b.N; i++ {
				var err error
				_, br, err = harness.Build(harness.RStar, m, opts)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(br.SizeBytes)/1024, "KB")
			b.ReportMetric(float64(br.DiskAccesses), "disk-accesses")
		})
	}
}

// BenchmarkAblationGridVsPMR contrasts the uniform grid with the PMR
// quadtree on urban (clustered) vs the benchmark rural data — the §2
// motivation for the adaptive decomposition.
func BenchmarkAblationGridVsPMR(b *testing.B) {
	_, _, wl := benchSetup(b)
	for _, tc := range []struct {
		name string
		m    *tiger.Map
	}{
		{"rural", benchMap},
		{"urban", benchUrban},
	} {
		for _, s := range []harness.Structure{harness.UniformGrid, harness.PMR} {
			b.Run(tc.name+"/"+s.String(), func(b *testing.B) {
				ix, br, err := harness.Build(s, tc.m, harness.DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				d := measureNearest(b, ix, wl.OneStage)
				b.ReportMetric(float64(br.SizeBytes)/1024, "KB")
				b.ReportMetric(float64(d.DiskAccesses)/float64(b.N), "disk-accesses/op")
			})
		}
	}
}

// BenchmarkPublicAPI exercises the facade end to end (quickstart shape).
func BenchmarkPublicAPI(b *testing.B) {
	db, err := Open(PMRQuadtree, nil)
	if err != nil {
		b.Fatal(err)
	}
	m, _, _ := benchSetup(b)
	for _, s := range m.Segments[:5000] {
		if _, err := db.Add(s); err != nil {
			b.Fatal(err)
		}
	}
	pts := make([]geom.Point, 64)
	for i := range pts {
		pts[i] = m.Segments[i*37].P1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Nearest(pts[i%len(pts)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBulkLoad contrasts one-at-a-time insertion (what
// Table 1 measures) with Sort-Tile-Recursive packing.
func BenchmarkAblationBulkLoad(b *testing.B) {
	m, _, _ := benchSetup(b)
	b.Run("incremental", func(b *testing.B) {
		var br harness.BuildResult
		for i := 0; i < b.N; i++ {
			var err error
			_, br, err = harness.Build(harness.RStar, m, harness.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(br.DiskAccesses), "disk-accesses")
		b.ReportMetric(float64(br.SizeBytes)/1024, "KB")
	})
	b.Run("str-packed", func(b *testing.B) {
		var accesses uint64
		var size int64
		for i := 0; i < b.N; i++ {
			table := seg.NewTable(1024, 16)
			ids := make([]seg.ID, len(m.Segments))
			for j, s := range m.Segments {
				ids[j], _ = table.Append(s)
			}
			pool := store.NewPool(store.NewDisk(1024), 16)
			tree, err := rstar.BulkLoad(pool, table, rstar.DefaultConfig(), ids)
			if err != nil {
				b.Fatal(err)
			}
			accesses = tree.DiskStats().Accesses()
			size = tree.SizeBytes()
		}
		b.ReportMetric(float64(accesses), "disk-accesses")
		b.ReportMetric(float64(size)/1024, "KB")
	})
}

// benchAllStructures lists every structure for the build benchmarks.
var benchAllStructures = []harness.Structure{
	harness.RStar, harness.RTree, harness.RPlus,
	harness.KDB, harness.PMR, harness.UniformGrid,
}

// BenchmarkBuildIncremental and BenchmarkBuildBulk are the paired build
// benchmarks of the bulk pipeline: the same mid-size county constructed
// per kind by one-at-a-time insertion versus bottom-up bulk loading.
// Compare them with benchstat (see the bench target in the Makefile).
func BenchmarkBuildIncremental(b *testing.B) { benchmarkBuild(b, false) }

// BenchmarkBuildBulk is the bulk half of the pair; see
// BenchmarkBuildIncremental.
func BenchmarkBuildBulk(b *testing.B) { benchmarkBuild(b, true) }

func benchmarkBuild(b *testing.B, bulk bool) {
	m, _, _ := benchSetup(b)
	for _, s := range benchAllStructures {
		b.Run(s.String(), func(b *testing.B) {
			opts := harness.DefaultOptions()
			opts.BulkLoad = bulk
			var br harness.BuildResult
			for i := 0; i < b.N; i++ {
				var err error
				_, br, err = harness.Build(s, m, opts)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(br.DiskAccesses), "disk-accesses")
			b.ReportMetric(float64(br.SizeBytes)/1024, "KB")
		})
	}
}

// BenchmarkOverlayJoin contrasts the PMR merge join with the index
// nested-loop join on two mid-size maps (the §7 composition claim).
func BenchmarkOverlayJoin(b *testing.B) {
	m, built, _ := benchSetup(b)
	other, err := tiger.Generate(tiger.Spec{
		Name: "bench-other", Kind: tiger.Suburban, Seed: 777,
		Lattice: 24, SubdivMin: 2, SubdivMax: 4, DeleteFrac: 0.1,
	})
	if err != nil {
		b.Fatal(err)
	}
	pmrA := built[harness.PMR].(*pmr.Tree)
	pmrB, _, err := harness.Build(harness.PMR, other, harness.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	sink := func(seg.ID, seg.ID, geom.Segment, geom.Segment) bool { return true }
	b.Run("pmr-merge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := pmr.JoinObs(pmrA, pmrB.(*pmr.Tree), sink, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	rstarB, _, err := harness.Build(harness.RStar, other, harness.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("nested-loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := core.JoinNestedLoopObs(built[harness.RStar], rstarB, sink, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	_ = m
}

// windowBatchSetup is the fixture of BenchmarkWindowBatch: a ~50k-segment
// county in a packed R*-tree over a pool large enough to keep the working
// set resident, so the benchmark measures query execution rather than
// cold-cache page faults.
func windowBatchSetup(b *testing.B) (*DB, []Rect) {
	b.Helper()
	m, err := GenerateCounty("Charles")
	if err != nil {
		b.Fatal(err)
	}
	db, err := Open(RStarTree, WithPoolPages(4096))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := db.LoadPacked(m); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(20260805))
	rects := make([]Rect, 256)
	for i := range rects {
		x := rng.Int31n(geom.WorldSize - 512)
		y := rng.Int31n(geom.WorldSize - 512)
		w := rng.Int31n(768) + 256
		rects[i] = geom.RectOf(x, y, minInt32(x+w, geom.WorldSize-1), minInt32(y+w, geom.WorldSize-1))
	}
	// Warm the pool so every variant starts from the same cache state.
	if err := db.WindowBatch(rects, func(int, SegmentID, Segment) bool { return true }); err != nil {
		b.Fatal(err)
	}
	return db, rects
}

func minInt32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}

// BenchmarkWindowBatch contrasts one goroutine running a 256-window
// batch over a ~50k-segment county with 8 goroutines splitting the same
// windows, each running WindowAppendCtx over its own share: callers'
// concurrency, the traffic a pool whose hits scale must serve. The
// parallel sub-benchmark reports a "speedup" metric (the sequential batch
// time / its own, measured in the same process): the number such a pool
// must raise above 1 (ROADMAP). The goroutine count is fixed, not
// GOMAXPROCS, so the rows mean the same on every box.
func BenchmarkWindowBatch(b *testing.B) {
	const workers = 8
	db, rects := windowBatchSetup(b)
	// batchNs runs batch b.N times and returns one batch's time.
	batchNs := func(b *testing.B, batch func() error) float64 {
		start := time.Now()
		for i := 0; i < b.N; i++ {
			if err := batch(); err != nil {
				b.Fatal(err)
			}
		}
		elapsed := time.Since(start)
		b.ReportMetric(float64(len(rects))*float64(b.N)/elapsed.Seconds(), "queries/s")
		return float64(elapsed.Nanoseconds()) / float64(b.N)
	}
	var seqNs float64
	b.Run("sequential", func(b *testing.B) {
		seqNs = batchNs(b, func() error {
			return db.WindowBatch(rects, func(int, SegmentID, Segment) bool { return true })
		})
	})
	b.Run(fmt.Sprintf("parallel-%d", workers), func(b *testing.B) {
		ctx := context.Background()
		bufs := make([][]WindowHit, workers)
		errs := make([]error, workers)
		parNs := batchNs(b, func() error {
			var wg sync.WaitGroup
			for w := range workers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for q := w; q < len(rects) && errs[w] == nil; q += workers {
						bufs[w], _, errs[w] = db.WindowAppendCtx(ctx, rects[q], bufs[w][:0])
					}
				}()
			}
			wg.Wait()
			return errors.Join(errs...)
		})
		if seqNs > 0 && parNs > 0 {
			b.ReportMetric(seqNs/parNs, "speedup")
		}
	})
}

// BenchmarkHotReads is the repo benchmark's rstar_hot read mix as a Go
// benchmark, so it can be profiled (make profile-hot) without touching the
// frozen harness: the Charles map bulk-built into an R*-tree whose 4096
// pool pages hold everything, then 80% WindowAppendCtx of side 64-256 and
// 20% NearestKAppendCtx with k in {1,5,10}, one goroutine, buffers reused.
// No disk access, no decode: what is left is the node kernels, the pool
// hit, the segment fetch, the k-NN queue and the facade.
func BenchmarkHotReads(b *testing.B) {
	db := hotRStar(b)
	type read struct {
		r Rect
		p Point
		k int // 0: window
	}
	rng := rand.New(rand.NewSource(7))
	reads := make([]read, 1<<14)
	for i := range reads {
		if rng.Intn(5) == 0 {
			reads[i] = read{p: Pt(rng.Int31n(WorldSize), rng.Int31n(WorldSize)), k: []int{1, 5, 10}[rng.Intn(3)]}
			continue
		}
		side := 64 + rng.Int31n(193)
		x, y := rng.Int31n(WorldSize-side), rng.Int31n(WorldSize-side)
		reads[i] = read{r: RectOf(x, y, x+side, y+side)}
	}
	ctx := context.Background()
	var (
		hits []WindowHit
		nn   []NearestResult
	)
	run := func(q *read) {
		var err error
		if q.k == 0 {
			hits, _, err = db.WindowAppendCtx(ctx, q.r, hits[:0])
		} else {
			nn, _, err = db.NearestKAppendCtx(ctx, q.p, q.k, nn[:0])
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	for i := range reads { // fault everything in, fill the decode slots
		run(&reads[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(&reads[i%len(reads)])
	}
}

// hotRStar bulk-builds the Charles map into an R*-tree whose 4096 pool
// pages hold everything, as the repo benchmark's rstar_hot does.
func hotRStar(b *testing.B) *DB {
	b.Helper()
	m, err := GenerateCounty("Charles")
	if err != nil {
		b.Fatal(err)
	}
	db, err := Open(RStarTree, WithPoolPages(4096))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := db.AddBatch(m.Segments); err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkNearestK prices the nearest-line query alone on the resident
// R*-tree of BenchmarkHotReads: NearestKAppendCtx at uniform points, one
// sub-benchmark per k, result buffer reused, so allocs/op is the search's
// own (zero when warm).
func BenchmarkNearestK(b *testing.B) {
	db := hotRStar(b)
	rng := rand.New(rand.NewSource(7))
	pts := make([]Point, 1<<12)
	for i := range pts {
		pts[i] = Pt(rng.Int31n(WorldSize), rng.Int31n(WorldSize))
	}
	ctx := context.Background()
	for _, k := range []int{1, 5, 10} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var nn []NearestResult
			query := func(p Point) {
				var err error
				if nn, _, err = db.NearestKAppendCtx(ctx, p, k, nn[:0]); err != nil {
					b.Fatal(err)
				}
			}
			for _, p := range pts { // fill the decode slots and the scratch
				query(p)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				query(pts[i%len(pts)])
			}
		})
	}
}
