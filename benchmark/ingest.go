package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"segdb"
	"segdb/internal/store"
)

// countingFS wraps a WAL file system and counts the bytes written
// through it: log records and checkpoint images alike, which together
// are what one acknowledged write costs the device.
type countingFS struct {
	store.WALFS
	bytes atomic.Int64
}

type countingFile struct {
	store.WALFile
	fs *countingFS
}

func (fs *countingFS) Create(name string) (store.WALFile, error) {
	f, err := fs.WALFS.Create(name)
	if err != nil {
		return nil, err
	}
	return &countingFile{WALFile: f, fs: fs}, nil
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.WALFile.Write(p)
	f.fs.bytes.Add(int64(n))
	return n, err
}

// ingestInst runs one writer goroutine beside one reader goroutine on an
// R*-tree with a WAL on an in-memory file system (default flush policy:
// one sync per commit; no device is involved). Every round starts from
// a fresh bulk-built base.
type ingestInst struct {
	cfg     *config
	m       *segdb.MapData
	staged  bool
	writes  []writeOp
	windows []op

	// State of the most recent round, for the checks that follow it.
	db       *segdb.DB
	fs       *countingFS
	added    []segdb.SegmentID // ids the database gave the stream's adds
	hits     []segdb.WindowHit
	lat      []int64
	writeLat []int64

	// Per-round counters the traced run reports.
	walBytes              int64
	stagedHits            uint64
	compactions, lockedRd uint64
}

func setupIngest(cfg *config, m *segdb.MapData, st *streams, staged bool) (instance, error) {
	in := &ingestInst{cfg: cfg, m: m, staged: staged, writes: st.writes, windows: st.reads}
	return in, in.fresh()
}

// fresh replaces the database with a newly bulk-built base.
func (in *ingestInst) fresh() error {
	in.fs = &countingFS{WALFS: segdb.NewMemWALFS()}
	opts := []segdb.Option{segdb.WithWALFS(in.fs)}
	if in.staged {
		opts = append(opts, segdb.WithStagedIngest())
	}
	db, err := segdb.Open(segdb.RStarTree, opts...)
	if err != nil {
		return err
	}
	if _, err := db.AddBatch(in.m.Segments); err != nil {
		return err
	}
	in.db = db
	return nil
}

func (in *ingestInst) clients() int { return 2 }

// buildStats reports nothing: the writes this workload counts are the
// timed ones.
func (in *ingestInst) buildStats() (int, time.Duration) { return 0, 0 }

func (in *ingestInst) footprint() (int64, int) {
	return in.db.IndexSizeBytes() + in.db.TableSizeBytes(), in.db.Len()
}

// run starts from a fresh base and lands the write stream while the
// reader loops over its window list. sp, when non-nil, gets a span per
// call.
func (in *ingestInst) run(sp *spanLog) (roundStats, error) {
	if err := in.fresh(); err != nil {
		return roundStats{}, err
	}
	db := in.db
	m0 := db.Metrics()
	locked0 := db.LockedReads()
	wal0 := in.fs.bytes.Load()
	ctx := context.Background()

	r := roundStats{lat: in.lat[:0], writeLat: in.writeLat[:0]}
	var (
		stop       atomic.Bool
		wg         sync.WaitGroup
		readFails  int
		stagedHits uint64
	)
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		hits := in.hits
		// At least one read, so a very short write stream still reports.
		for j := 0; j == 0 || !stop.Load(); j++ {
			w := &in.windows[j%len(in.windows)]
			t0 := time.Now()
			var (
				st  segdb.QueryStats
				err error
			)
			hits, st, err = db.WindowAppendCtx(ctx, w.Rect, hits[:0])
			d := time.Since(t0)
			r.lat = append(r.lat, int64(d))
			r.disk += st.DiskAccesses()
			stagedHits += st.StagedHits
			if err != nil {
				readFails++
			}
			if sp != nil {
				sp.add(facadeSpan[opWindow], j, depthFacade, t0, d)
			}
		}
		in.hits = hits
	}()

	in.added = in.added[:0]
	for i := range in.writes {
		w := &in.writes[i]
		t0 := time.Now()
		var err error
		if w.Del {
			err = db.Delete(in.added[w.Ref])
		} else {
			var id segdb.SegmentID
			id, err = db.Add(w.Seg)
			in.added = append(in.added, id)
		}
		d := time.Since(t0)
		r.writeLat = append(r.writeLat, int64(d))
		if err != nil {
			r.fails++
		}
		if sp != nil {
			sp.add("segdb.write", i, depthFacade, t0, d)
		}
	}
	r.writeWall = time.Since(start)
	stop.Store(true)
	wg.Wait()
	r.wall = time.Since(start)
	r.fails += readFails
	r.ops, r.writes = len(r.lat), len(in.writes)
	in.lat, in.writeLat = r.lat, r.writeLat

	in.walBytes = in.fs.bytes.Load() - wal0
	in.stagedHits = stagedHits
	in.compactions = db.Metrics().Sub(m0).Compactions
	in.lockedRd = db.LockedReads() - locked0
	return r, nil
}

func (in *ingestInst) round() (roundStats, error) { return in.run(nil) }

// model replays the write stream on a plain slice: the state the
// database must be in after a round.
func (in *ingestInst) model() ([]modelSeg, []segdb.SegmentID) {
	model := modelOf(in.m.Segments)
	ids := make([]segdb.SegmentID, len(model), len(model)+len(in.added))
	for i := range ids {
		ids[i] = segdb.SegmentID(i) // AddBatch into an empty database numbers from 0
	}
	base := len(model)
	for _, w := range in.writes {
		if w.Del {
			model[base+int(w.Ref)].live = false
		} else {
			model = append(model, modelSeg{seg: w.Seg, live: true})
		}
	}
	return model, append(ids, in.added...)
}

// stateMatches compares the ids a whole-world window returns with the
// model's live set. (DB.Len is no part of it: in in-place mode it counts
// the append-only table's slots, deleted ones included.)
func stateMatches(db *segdb.DB, model []modelSeg, ids []segdb.SegmentID) (bool, error) {
	var got []segdb.SegmentID
	err := db.Window(segdb.World(), func(id segdb.SegmentID, _ segdb.Segment) bool {
		got = append(got, id)
		return true
	})
	if err != nil {
		return false, err
	}
	return sameIDs(got, scanWindow(model, ids, segdb.World())), nil
}

// warm runs one full round and checks the final state against the model
// set, plus a sample of windows against the scan.
func (in *ingestInst) warm() (attempted, failed int, err error) {
	r, err := in.run(nil)
	if err != nil {
		return 0, 0, err
	}
	attempted, failed = r.ops+r.writes, r.fails
	model, ids := in.model()
	ok, err := stateMatches(in.db, model, ids)
	if err != nil {
		return 0, 0, err
	}
	attempted++
	if !ok {
		failed++
		fmt.Println("FAILED final state differs from the model set")
	}
	for i := 0; i < min(in.cfg.sz.checks, len(in.windows)); i++ {
		w := &in.windows[i]
		hits, _, err := in.db.WindowAppendCtx(context.Background(), w.Rect, nil)
		attempted++
		if err != nil || !sameIDs(hitIDs(hits), scanWindow(model, ids, w.Rect)) {
			failed++
			fmt.Printf("FAILED window %d after ingest: err=%v\n", i, err)
		}
	}
	// End at a quiescent durable point: the staging tier folded in and the
	// log cut. heap_mb, taken next, then holds the program's memory and
	// not however much log the in-memory file system happens to hold,
	// which depends on where in a compaction cycle the stream ended.
	return attempted, failed, in.db.Checkpoint()
}

// recoverCheck reopens the last round's database, in the same mode, from
// the bytes its WAL file system holds, and compares the recovered state
// with the live database's Len and with the model. It must be the last
// thing done to the round: recovery takes the log over.
func (in *ingestInst) recoverCheck() (ok bool, d time.Duration, err error) {
	model, ids := in.model()
	var opts []segdb.Option
	if in.staged {
		opts = append(opts, segdb.WithStagedIngest())
	}
	start := time.Now()
	rec, _, err := segdb.RecoverFS(in.fs, opts...)
	if err != nil {
		return false, 0, err
	}
	d = time.Since(start)
	ok, err = stateMatches(rec, model, ids)
	return ok && rec.Len() == in.db.Len(), d, err
}

func (in *ingestInst) finish() (attempted, failed int, err error) {
	ok, _, err := in.recoverCheck()
	if err != nil {
		return 0, 0, err
	}
	if !ok {
		fmt.Println("FAILED recovered state differs from the model set")
		return 1, 1, nil
	}
	return 1, 0, nil
}

// layers runs a traced round between two plain ones, reports the
// writer's side of it, and then, with the database quiet and warm, times
// the reader's windows at the facade and at the index.
func (in *ingestInst) layers(c *collector) (attempted, failed int, err error) {
	count := func(r roundStats) float64 {
		attempted += r.ops + r.writes
		failed += r.fails
		return float64(r.ops) / r.wall.Seconds()
	}
	plain, err := in.run(nil)
	if err != nil {
		return 0, 0, err
	}
	plainOps := count(plain)
	spans := in.cfg.spans
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	r, err := in.run(spans)
	if err != nil {
		return 0, 0, err
	}
	runtime.ReadMemStats(&ms1)
	tracedOps := count(r)
	c.add("segdb.allocs_per_op", float64(ms1.Mallocs-ms0.Mallocs)/float64(r.ops+r.writes))
	reads, writes := summarize(r.lat), summarize(r.writeLat)
	c.add("segdb.window_us", reads.p50)
	c.add("segdb.read_p99_us", reads.tail)
	c.add("segdb.write_p50_us", writes.p50)
	c.add("segdb.write_p99_us", writes.tail)
	c.add("segdb.write_max_us", writes.max)
	c.add("segdb.wal_bytes_per_write", float64(in.walBytes)/float64(r.writes))
	c.add("segdb.compactions", float64(in.compactions))
	c.add("segdb.locked_reads", float64(in.lockedRd))
	c.add("segdb.staged_hits_per_op", float64(in.stagedHits)/float64(r.ops))
	c.add("rstar.window_us", reads.p50)
	c.add("rstar.disk_acc_per_op", float64(r.disk)/float64(r.ops))
	after, err := in.run(nil)
	if err != nil {
		return 0, 0, err
	}
	c.add("trace.overhead_frac", 1-tracedOps/((plainOps+count(after))/2))

	// Quiet passes over the reader's windows: one to warm, then the list
	// several times over at the facade, then as often at the index.
	const quietReps = 10
	db := in.db
	ix := db.Index()
	sink := func(segdb.SegmentID, segdb.Segment) bool { return true }
	sweep := func(reps int, below bool, name string, depth int) (ns int64) {
		for rep := 0; rep < reps; rep++ {
			for i := range in.windows {
				w := &in.windows[i]
				t0 := time.Now()
				var err error
				if below {
					err = ix.WindowObs(w.Rect, sink, nil)
				} else {
					in.hits, _, err = db.WindowAppendCtx(context.Background(), w.Rect, in.hits[:0])
				}
				d := time.Since(t0)
				ns += int64(d)
				attempted++
				if err != nil {
					failed++
				}
				if name != "" {
					spans.add(name, r.ops+rep*len(in.windows)+i, depth, t0, d)
				}
			}
		}
		return ns
	}
	sweep(1, false, "", 0)
	before := snapshotCaches(db)
	facade := sweep(quietReps, false, facadeSpan[opWindow], depthFacade)
	c.addCacheRatios(before, snapshotCaches(db))
	index := sweep(quietReps, true, indexSpan[opWindow], depthIndex)
	c.add("segdb.overhead_ns_per_op", float64(facade-index)/float64(quietReps*len(in.windows)))

	start := time.Now()
	if err := db.Checkpoint(); err != nil {
		return 0, 0, err
	}
	c.add("segdb.checkpoint_s", time.Since(start).Seconds())
	ok, d, err := in.recoverCheck()
	if err != nil {
		return 0, 0, err
	}
	attempted++
	if !ok {
		failed++
		fmt.Println("FAILED recovered state differs from the model set")
	}
	c.add("segdb.recover_s", d.Seconds())

	set := microPool | microRTree | microWALPages
	if in.staged {
		set = microPool | microRTree | microStaging | microWALStaged
	}
	return attempted, failed, runMicro(in.cfg, c, set, in.m.Segments, 0)
}
