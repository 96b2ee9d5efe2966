package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"segdb"
	"segdb/internal/core"
)

// localDB is one database of an in-process read workload.
type localDB struct {
	label string // "rstar", "rplus", "pmr": the per-layer metric prefix
	db    *segdb.DB
	ids   []segdb.SegmentID // ids[i] is the id of m.Segments[i]
	build time.Duration
}

// localInst replays one read stream, from one goroutine, against one or
// more databases in turn: paper_mix (three kinds, visitor forms),
// rstar_hot and pmr_compressed (one kind, append forms).
type localInst struct {
	cfg        *config
	m          *segdb.MapData
	dbs        []localDB
	ops        []op
	appendForm bool
	micro      microSet
	level      int // page compression level of the harvested pages

	// Result buffers, reused by every read. After exec the answer of the
	// last read is in hits (window, incident, other-endpoint) or nn.
	hits  []segdb.WindowHit
	nn    []segdb.NearestResult
	visit func(segdb.SegmentID, segdb.Segment) bool
	lat   []int64
}

func newLocalInst(cfg *config, m *segdb.MapData, st *streams) *localInst {
	li := &localInst{cfg: cfg, m: m, ops: st.reads}
	li.visit = func(id segdb.SegmentID, s segdb.Segment) bool {
		li.hits = append(li.hits, segdb.WindowHit{ID: id, Seg: s})
		return true
	}
	return li
}

// setupPaperMix builds the paper's three structures one segment at a
// time, with the defaults of the paper's experiments.
func setupPaperMix(cfg *config, m *segdb.MapData, st *streams) (instance, error) {
	li := newLocalInst(cfg, m, st)
	li.micro = microPool | microRTree | microBTree
	kinds := []segdb.Kind{segdb.RStarTree, segdb.RPlusTree, segdb.PMRQuadtree}
	for i, kind := range kinds {
		db, err := segdb.Open(kind)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		ids, err := db.Load(m)
		if err != nil {
			return nil, err
		}
		li.dbs = append(li.dbs, localDB{label: paperKinds[i], db: db, ids: ids, build: time.Since(start)})
	}
	return li, nil
}

func setupBulk(cfg *config, m *segdb.MapData, st *streams, label string, kind segdb.Kind, opts ...segdb.Option) (*localInst, error) {
	li := newLocalInst(cfg, m, st)
	li.appendForm = true
	db, err := segdb.Open(kind, opts...)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	ids, err := db.AddBatch(m.Segments)
	if err != nil {
		return nil, err
	}
	li.dbs = []localDB{{label: label, db: db, ids: ids, build: time.Since(start)}}
	return li, nil
}

func setupRStarHot(cfg *config, m *segdb.MapData, st *streams) (instance, error) {
	li, err := setupBulk(cfg, m, st, "rstar", segdb.RStarTree, segdb.WithPoolPages(4096))
	if err != nil {
		return nil, err
	}
	li.micro = microPool | microRTree
	return li, nil
}

func setupPMRCompressed(cfg *config, m *segdb.MapData, st *streams) (instance, error) {
	li, err := setupBulk(cfg, m, st, "pmr", segdb.PMRQuadtree, segdb.WithPageCompression(1))
	if err != nil {
		return nil, err
	}
	li.micro = microPool | microBTree
	li.level = 1
	return li, nil
}

func (li *localInst) clients() int { return 1 }

func (li *localInst) finish() (int, int, error) { return 0, 0, nil }

func (li *localInst) buildStats() (int, time.Duration) {
	var d time.Duration
	for _, ld := range li.dbs {
		d += ld.build
	}
	return len(li.dbs) * len(li.m.Segments), d
}

func (li *localInst) footprint() (int64, int) {
	var bytes int64
	var segs int
	for _, ld := range li.dbs {
		bytes += ld.db.IndexSizeBytes() + ld.db.TableSizeBytes()
		segs += ld.db.Len()
	}
	return bytes, segs
}

// exec sends one read through the facade.
func (li *localInst) exec(ld *localDB, o *op) (segdb.QueryStats, error) {
	ctx := context.Background()
	li.hits, li.nn = li.hits[:0], li.nn[:0]
	var (
		st  segdb.QueryStats
		err error
	)
	switch o.Kind {
	case opWindow:
		if li.appendForm {
			li.hits, st, err = ld.db.WindowAppendCtx(ctx, o.Rect, li.hits)
		} else {
			st, err = ld.db.WindowCtx(ctx, o.Rect, li.visit)
		}
	case opNearest:
		if li.appendForm {
			li.nn, st, err = ld.db.NearestKAppendCtx(ctx, o.P, o.K, li.nn)
		} else {
			var res segdb.NearestResult
			res, st, err = ld.db.NearestCtx(ctx, o.P)
			if res.Found {
				li.nn = append(li.nn, res)
			}
		}
	case opIncident:
		st, err = ld.db.IncidentAtCtx(ctx, o.P, li.visit)
	case opOtherEnd:
		st, err = ld.db.OtherEndpointCtx(ctx, ld.ids[o.Seg], o.P, li.visit)
	case opPolygon:
		_, st, err = ld.db.EnclosingPolygonCtx(ctx, o.P)
	}
	return st, err
}

// execIndex sends one read straight to the index under the facade: no
// read acquisition, no per-query observation.
func (li *localInst) execIndex(ld *localDB, ix core.Index, o *op) error {
	li.hits, li.nn = li.hits[:0], li.nn[:0]
	var err error
	switch o.Kind {
	case opWindow:
		err = ix.WindowObs(o.Rect, li.visit, nil)
	case opNearest:
		li.nn, err = ix.NearestKAppendObs(o.P, o.K, li.nn, nil)
	case opIncident:
		err = core.IncidentAtObs(ix, o.P, li.visit, nil)
	case opOtherEnd:
		err = core.OtherEndpointObs(ix, ld.ids[o.Seg], o.P, li.visit, nil)
	case opPolygon:
		_, err = core.EnclosingPolygonObs(ix, o.P, nil)
	}
	return err
}

func (li *localInst) dropCaches() error {
	for _, ld := range li.dbs {
		if err := ld.db.DropCaches(); err != nil {
			return err
		}
	}
	return nil
}

// warm replays the stream once and checks every stride-th answer.
func (li *localInst) warm() (attempted, failed int, err error) {
	model := modelOf(li.m.Segments)
	total := len(li.dbs) * len(li.ops)
	stride := max(1, total/li.cfg.sz.checks)
	n := 0
	for di := range li.dbs {
		ld := &li.dbs[di]
		for i := range li.ops {
			o := &li.ops[i]
			_, err := li.exec(ld, o)
			attempted++
			if err != nil || (n%stride == 0 && !verifyRead(model, ld.ids, o, li.hits, li.nn)) {
				failed++
				fmt.Printf("FAILED %s %s op %d: err=%v\n", ld.label, opKindNames[o.Kind], i, err)
			}
			n++
		}
	}
	return attempted, failed, nil
}

// opCell gathers the calls of one query type in a traced pass: their
// latencies and what they cost in the paper's currencies.
type opCell struct {
	lat              []int64
	disk, seg, nodes uint64
}

func (cl *opCell) add(d time.Duration, st segdb.QueryStats) {
	cl.lat = append(cl.lat, int64(d))
	cl.disk += st.DiskAccesses()
	cl.seg += st.SegComps
	cl.nodes += st.NodeComps
}

// observer sees every read of a traced pass.
type observer func(di, i int, o *op, start time.Time, d time.Duration, st segdb.QueryStats)

// pass replays the stream once from cold caches, timing every read. A
// non-nil obs is told of each one; a non-nil index sends the reads
// below the facade.
func (li *localInst) pass(below bool, obs observer) (roundStats, error) {
	if err := li.dropCaches(); err != nil {
		return roundStats{}, err
	}
	r := roundStats{lat: li.lat[:0]}
	start := time.Now()
	for di := range li.dbs {
		ld := &li.dbs[di]
		ix := ld.db.Index()
		for i := range li.ops {
			o := &li.ops[i]
			var (
				st  segdb.QueryStats
				err error
			)
			t0 := time.Now()
			if below {
				err = li.execIndex(ld, ix, o)
			} else {
				st, err = li.exec(ld, o)
			}
			d := time.Since(t0)
			r.lat = append(r.lat, int64(d))
			r.disk += st.DiskAccesses()
			if err != nil {
				r.fails++
			}
			if obs != nil {
				obs(di, i, o, t0, d, st)
			}
		}
	}
	r.wall = time.Since(start)
	r.ops = len(r.lat)
	li.lat = r.lat
	return r, nil
}

func (li *localInst) round() (roundStats, error) { return li.pass(false, nil) }

// layers times the stream at the facade (depth 4) and at the index
// (depth 5), splits the facade pass by kind and query type, and runs the
// micro-benchmarks over real pages.
func (li *localInst) layers(c *collector) (attempted, failed int, err error) {
	count := func(r roundStats) float64 {
		attempted += r.ops
		failed += r.fails
		return float64(r.ops) / r.wall.Seconds()
	}
	// Reference: a plain round before the traced rounds and one after, so
	// that drift over the run cancels out of the cost of recording spans.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	plain, err := li.pass(false, nil)
	if err != nil {
		return 0, 0, err
	}
	runtime.ReadMemStats(&ms1)
	plainOps := count(plain)
	c.add("segdb.allocs_per_op", float64(ms1.Mallocs-ms0.Mallocs)/float64(plain.ops))

	cells := make([][numOpKinds]opCell, len(li.dbs))
	var winFacade, winIndex int64
	spans := li.cfg.spans

	first := li.dbs[0].db
	before := snapshotCaches(first)
	facade, err := li.pass(false, func(di, i int, o *op, t0 time.Time, d time.Duration, st segdb.QueryStats) {
		spans.add(facadeSpan[o.Kind], di*len(li.ops)+i, depthFacade, t0, d)
		cells[di][o.Kind].add(d, st)
		if o.Kind == opWindow {
			winFacade += int64(d)
		}
	})
	if err != nil {
		return 0, 0, err
	}
	facadeOps := count(facade)
	c.add("segdb.read_p99_us", summarize(facade.lat).tail) // before the next pass reuses the buffer
	c.addCacheRatios(before, snapshotCaches(first))

	index, err := li.pass(true, func(di, i int, o *op, t0 time.Time, d time.Duration, _ segdb.QueryStats) {
		spans.add(indexSpan[o.Kind], di*len(li.ops)+i, depthIndex, t0, d)
		if o.Kind == opWindow {
			winIndex += int64(d)
		}
	})
	if err != nil {
		return 0, 0, err
	}
	count(index)
	after, err := li.pass(false, nil)
	if err != nil {
		return 0, 0, err
	}
	c.add("trace.overhead_frac", 1-facadeOps/((plainOps+count(after))/2))

	// The facade's own timings are those of the first database; the
	// per-kind tables are filled for every kind the workload holds.
	c.add("segdb.window_us", summarize(cells[0][opWindow].lat).p50)
	c.add("segdb.nearest_us", summarize(cells[0][opNearest].lat).p50)
	windows := 0
	for di, ld := range li.dbs {
		var n int
		var disk, seg, nodes uint64
		for k := opKind(0); k < numOpKinds; k++ {
			cl := &cells[di][k]
			n += len(cl.lat)
			disk, seg, nodes = disk+cl.disk, seg+cl.seg, nodes+cl.nodes
			if len(cl.lat) > 0 {
				c.add(ld.label+"."+opKindNames[k]+"_us", summarize(cl.lat).p50)
			}
		}
		windows += len(cells[di][opWindow].lat)
		c.add(ld.label+".disk_acc_per_op", float64(disk)/float64(n))
		c.add(ld.label+".seg_comps_per_op", float64(seg)/float64(n))
		c.add(ld.label+".node_comps_per_op", float64(nodes)/float64(n))
		if len(li.dbs) > 1 {
			c.add("segdb.load_s."+ld.label, ld.build.Seconds())
		} else {
			c.add("segdb.addbatch_s", ld.build.Seconds())
		}
	}
	if windows > 0 {
		c.add("segdb.overhead_ns_per_op", float64(winFacade-winIndex)/float64(windows))
	}
	return attempted, failed, runMicro(li.cfg, c, li.micro, li.m.Segments, li.level)
}
