// Package segdb is a disk-oriented spatial database for large line segment
// collections ("polygonal maps"), reproducing the systems compared by
// Hoel & Samet in "A Qualitative Comparison Study of Data Structures for
// Large Line Segment Databases" (SIGMOD 1992).
//
// A DB pairs a disk-resident segment table with one of six spatial
// indexes — the R*-tree, the classic Guttman R-tree, the hybrid R+-tree of
// the paper, the PMR quadtree (a linear quadtree over a B+-tree), the pure
// k-d-B-tree variant, or a uniform grid — all implemented from scratch over a simulated paged disk
// with an LRU buffer pool, so every operation is accounted in the paper's
// three currencies: disk accesses, segment comparisons, and bounding
// box/bucket computations.
//
// The five queries of the paper are provided on every index: segments
// incident at an endpoint, segments at the other endpoint of a segment,
// nearest segment to a point, the minimal polygon (map face) enclosing a
// point, and rectangular window search.
//
//	db, _ := segdb.Open(segdb.PMRQuadtree)
//	id, _ := db.Add(segdb.Seg(10, 10, 400, 80))
//	res, _ := db.Nearest(segdb.Pt(50, 60))
//
// Each query also has a context-threaded form returning per-query
// statistics (see WindowCtx and the "Query API v2" section of the
// README):
//
//	st, _ := db.WindowCtx(ctx, r, visit)
//	fmt.Println(st.DiskAccesses(), st.SegComps)
package segdb

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"segdb/internal/core"
	"segdb/internal/geom"
	"segdb/internal/obs"
	"segdb/internal/seg"
	"segdb/internal/staging"
	"segdb/internal/store"
)

// Geometry types of the 16384 x 16384 integer world.
type (
	// Point is a location on the grid.
	Point = geom.Point
	// Segment is an undirected line segment between two grid points.
	Segment = geom.Segment
	// Rect is a closed axis-aligned rectangle.
	Rect = geom.Rect
	// SegmentID identifies a stored segment.
	SegmentID = seg.ID
	// NearestResult is the answer to a nearest-segment query.
	NearestResult = core.NearestResult
	// Polygon is the boundary of a map face, as returned by
	// EnclosingPolygon.
	Polygon = core.Polygon
	// Metrics counts disk accesses, segment comparisons, and bounding
	// box/bucket computations.
	Metrics = core.Metrics
)

// Fault-injection types, re-exported so facade users can construct
// policies without reaching into internal packages. The error types and
// sentinels they produce live in errors.go alongside the rest of the
// typed-error surface.
type (
	// FaultPolicy injects deterministic faults into a DB's disks; see
	// SetFaultPolicy.
	FaultPolicy = store.FaultPolicy
	// FaultConfig configures the fault distribution of a FaultPolicy.
	FaultConfig = store.FaultConfig
)

// NewFaultPolicy creates a fault-injection policy; attach it with
// SetFaultPolicy.
func NewFaultPolicy(cfg FaultConfig) *FaultPolicy { return store.NewFaultPolicy(cfg) }

// WorldSize is the side length of the coordinate space.
const WorldSize = geom.WorldSize

// Pt builds a Point.
func Pt(x, y int32) Point { return geom.Pt(x, y) }

// Seg builds a Segment from endpoint coordinates.
func Seg(x1, y1, x2, y2 int32) Segment { return geom.Seg(x1, y1, x2, y2) }

// RectOf builds a Rect from two corners (in any order).
func RectOf(x1, y1, x2, y2 int32) Rect { return geom.RectOf(x1, y1, x2, y2) }

// World returns the rectangle covering the whole coordinate space.
func World() Rect { return geom.World() }

// Kind selects the spatial index backing a DB.
type Kind int

// The six index kinds.
const (
	// RStarTree is the R*-tree of Beckmann et al. (minimum bounding
	// rectangles, forced reinsertion; the most compact structure).
	RStarTree Kind = iota
	// RPlusTree is the paper's hybrid R+-tree: disjoint k-d-B style space
	// partition with segment MBRs in the leaves.
	RPlusTree
	// PMRQuadtree is the PMR quadtree stored as a linear quadtree in a
	// disk B+-tree (splitting threshold 4, max depth 14 by default).
	PMRQuadtree
	// KDBTree is the pure k-d-B-tree variant of the hybrid (no leaf
	// MBRs); an ablation of RPlusTree.
	KDBTree
	// UniformGrid is the fixed-resolution grid of the paper's §2.
	UniformGrid
	// ClassicRTree is the original R-tree of Guttman (least-enlargement
	// insertion, quadratic split, no forced reinsertion) — the baseline
	// the R*-tree improves on.
	ClassicRTree
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case RStarTree:
		return "R*-tree"
	case RPlusTree:
		return "R+-tree"
	case PMRQuadtree:
		return "PMR quadtree"
	case KDBTree:
		return "k-d-B-tree"
	case UniformGrid:
		return "uniform grid"
	case ClassicRTree:
		return "R-tree"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Options tunes the simulated disk and the index parameters. The zero
// value of any field selects the paper's default.
//
// Options is the carrier the functional With* options fold into, and
// what a saved image's header restores. It is not itself an Option:
// databases are configured through the With* functions only.
type Options struct {
	// PageSize is the disk page size in bytes (default 1024).
	PageSize int
	// PoolPages is the buffer pool capacity in pages (default 16).
	PoolPages int
	// PMRThreshold is the PMR quadtree splitting threshold (default 4).
	PMRThreshold int
	// PMRStoreMBR enables the PMR variant of §6 of the paper that stores
	// a small bounding rectangle with every q-edge ("3-tuples"), trading
	// storage for fewer segment comparisons.
	PMRStoreMBR bool
	// PageCompression selects the on-disk page format, 0 or 1 (see
	// WithPageCompression). Serialized by Save: a compressed image
	// reopens compressed.
	PageCompression int
	// FaultPolicy, if non-nil, is attached to both disks at open time
	// (see WithFaultPolicy). Runtime state, not serialized by Save.
	FaultPolicy *FaultPolicy
	// Tracer, if non-nil, is installed at open time (see WithTracer).
	// Runtime state, not serialized by Save.
	Tracer Tracer
	// WALDir, if non-empty, makes the database durable: a write-ahead
	// log and checkpoint are kept in this directory (see WithWAL).
	WALDir string
	// WALFS, if non-nil, overrides WALDir with an explicit log
	// filesystem (see WithWALFS); crash harnesses pass a MemWALFS.
	WALFS WALFS
	// RetryPolicy, if non-nil, is attached to both disks at open time
	// (see WithRetryPolicy). Runtime state, not serialized by Save.
	RetryPolicy *RetryPolicy
	// DegradedReads makes queries skip quarantined pages and report them
	// in QueryStats.SkippedPages instead of failing (see
	// WithDegradedReads).
	DegradedReads bool
	// StagedIngest enables MVCC snapshot reads and LSM-staged writes
	// (see WithStagedIngest). A runtime mode, not serialized by Save.
	StagedIngest bool
	// CompactThreshold is the staging-tier size that triggers automatic
	// compaction (default 4096; negative disables — see
	// WithCompactThreshold).
	CompactThreshold int
}

// DB is a line segment database: a disk-resident segment table plus one
// spatial index over it.
//
// # Concurrency model
//
// The read path is fully concurrent: any number of goroutines may run
// Window, Nearest, NearestK, IncidentAt, OtherEndpoint, EnclosingPolygon,
// Get, WindowBatch and Overlay at the same time; no call spawns
// goroutines of its own. They share a reader lock; underneath, the buffer
// pools are latched. Each query charges its own operation, which no other
// goroutine touches, and folds it into the database's ledger once, when
// it finishes, so concurrent queries neither race nor skew the paper's
// accounting (hits+misses, segment comparisons, and bounding box
// computations total exactly the same as a sequential replay; only the
// hit/miss split depends on interleaving).
//
// By default writes are exclusive: Add, Delete, Load, LoadPacked,
// DropCaches, CheckIntegrity, SetFaultPolicy, and Save take the writer
// lock and therefore never run concurrently with queries or each other.
//
// A database opened with WithStagedIngest instead runs MVCC snapshot
// reads: queries pin an immutable published snapshot and acquire no lock
// at all, while Add and Delete are absorbed by an in-memory staging tier
// and folded into the disk index by compaction (see mvcc.go). Writers
// never block readers and readers never block writers; writers still
// serialize among themselves on the writer lock.
type DB struct {
	mu    sync.RWMutex // queries share (legacy mode); structural writes are exclusive
	seq   uint64       // allocation order; fixes the lock order for two-DB operations
	kind  Kind
	opts  Options
	table *seg.Table
	pool  *store.Pool
	index persistable

	trc      atomic.Pointer[tracerBox]      // installed tracer; queries read lock-free
	degraded atomic.Bool                    // live degraded-reads flag; queries read lock-free
	qid      atomic.Uint64                  // query IDs for QueryInfo
	prof     [numQueryKinds]obs.KindProfile // per-kind latency/disk histograms

	// ledger totals the comparisons of every finished query and write. A
	// query folds its op in finish; a write charges wop, which unlock
	// folds before it releases the writer lock.
	ledger obs.Ledger
	wop    obs.Op // the write in flight; guarded by the writer half of mu

	// devMu guards pool and retired against Metrics, which takes no other
	// lock. retired sums the device counters of the index pools a bulk
	// rebuild replaced, so Metrics never runs backwards.
	devMu   sync.Mutex
	retired Metrics

	// Staged-ingest (MVCC) state; snap is non-nil exactly in staged
	// mode. The writer-side fields are guarded by the writer half of mu;
	// readers only ever touch the immutable snapshot behind snap.
	snap     atomic.Pointer[dbSnapshot]
	curEpoch *store.Epoch // current epoch (writer-side)
	version  uint64       // mutations published so far (writer-side)
	mem      *staging.Mem // current memtable (writer-side)
	baseIDs  []seg.ID     // sorted live ids of the base index (writer-side)
	tombs    []seg.ID     // sorted tombstoned base ids (copy-on-write)

	lockedReads atomic.Uint64 // reader-lock acquisitions by query paths
	stagedOps   atomic.Uint64 // mutations absorbed by the staging tier
	compactions atomic.Uint64 // staging-tier folds into the base index
	bulkMerges  atomic.Uint64 // non-empty AddBatch bulk merges

	// Durability state (nil/zero without WithWAL); guarded by mu.
	walfs    store.WALFS // filesystem holding the checkpoint and the log
	wal      *store.WAL  // open write-ahead log
	walEpoch uint64      // epoch stamped on commits (checkpoint epoch + 1)
	walSeq   uint64      // mutations committed so far
}

// tracerBox wraps a Tracer for atomic publication (an interface value
// cannot be stored atomically without a carrier).
type tracerBox struct{ t Tracer }

// setTracer atomically installs (or with nil removes) the tracer.
func (db *DB) setTracer(t Tracer) {
	if t == nil {
		db.trc.Store(nil)
		return
	}
	db.trc.Store(&tracerBox{t: t})
}

// tracerNow returns the currently installed tracer (nil if none).
func (db *DB) tracerNow() Tracer {
	if b := db.trc.Load(); b != nil {
		return b.t
	}
	return nil
}

// dbSeq hands every DB a unique sequence number so operations over two
// databases (Overlay) can always acquire their locks in a global order.
var dbSeq atomic.Uint64

// newDB wraps a built or restored index in a DB with the sequence
// number that fixes its place in the two-DB lock order, and attaches
// o's runtime options. Callers build the index before it and run WAL
// set-up after it, so injected faults miss the former and are live
// during the latter.
func newDB(kind Kind, o Options, table *seg.Table, pool *store.Pool, ix persistable) *DB {
	db := &DB{seq: dbSeq.Add(1), kind: kind, opts: o, table: table, pool: pool, index: ix}
	db.attachRuntime(o)
	return db
}

// attachRuntime installs the options no image stores: the tracer, the
// degraded-reads flag, the fault and retry policies on both disks, and
// the staged-ingest settings. Recover attaches them after replay.
func (db *DB) attachRuntime(o Options) {
	db.opts.FaultPolicy, db.opts.Tracer, db.opts.RetryPolicy = o.FaultPolicy, o.Tracer, o.RetryPolicy
	db.opts.DegradedReads, db.opts.StagedIngest, db.opts.CompactThreshold = o.DegradedReads, o.StagedIngest, o.CompactThreshold
	db.setTracer(o.Tracer)
	db.degraded.Store(o.DegradedReads)
	db.SetFaultPolicy(o.FaultPolicy)
	db.SetRetryPolicy(o.RetryPolicy)
}

// Open creates an empty database backed by the chosen index kind. With
// no options it uses the configuration of the paper's experiments;
// tune it with functional options (WithPageSize, WithPoolPages,
// WithTracer, ...). A nil Option is skipped, so the pre-v2 spelling
// Open(kind, nil) still compiles and means the defaults.
func Open(kind Kind, opts ...Option) (*DB, error) {
	o := resolveOptions(opts)
	if err := checkOptions(o); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidArgument, err)
	}
	impl, err := implOf(kind)
	if err != nil {
		return nil, err
	}
	table := seg.NewTable(o.PageSize, o.PoolPages)
	pool := store.NewPool(store.NewDisk(o.PageSize), o.PoolPages)
	ix, err := impl.new(o, kind, pool, table)
	if err != nil {
		return nil, err
	}
	db := newDB(kind, o, table, pool, ix)
	wfs := o.WALFS
	if wfs == nil && o.WALDir != "" {
		wfs, err = store.NewDirWALFS(o.WALDir)
		if err != nil {
			return nil, err
		}
	}
	if wfs != nil {
		if err := db.initWAL(wfs); err != nil {
			return nil, err
		}
	}
	if o.StagedIngest {
		if err := db.initStaged(); err != nil {
			return nil, err
		}
	}
	db.foldWrite() // the staged tier's enumeration of the empty index
	return db, nil
}

// Kind returns the index kind backing the database.
func (db *DB) Kind() Kind { return db.kind }

// Len returns the number of stored segments.
func (db *DB) Len() int {
	if s := db.snap.Load(); s != nil {
		// The snapshot's merged view nets out staged deletes (the
		// append-only table retains tombstoned slots); no lock needed.
		return s.merged.Len()
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.index.Table().Len()
}

// Add stores a segment and indexes it, returning its ID. Coordinates must
// lie in [0, WorldSize). In staged-ingest mode the segment lands in the
// in-memory staging tier (visible to queries immediately) and reaches
// the disk index at the next compaction.
//
// With a WAL, an Add that returns nil is durable, and one that returns
// an error is not. In staged mode a failed Add is also never visible; in
// place, whatever part of it reached memory becomes durable through the
// checkpoint the next write cuts.
func (db *DB) Add(s Segment) (SegmentID, error) {
	db.mu.Lock()
	defer db.unlock()
	if err := db.settleLocked(); err != nil {
		return seg.NilID, err
	}
	if err := checkSegments(s); err != nil {
		return seg.NilID, err
	}
	if db.stagedMode() {
		return db.addStagedLocked(s)
	}
	id, err := db.addLocked(s)
	if err != nil {
		return seg.NilID, db.failLocked(err)
	}
	return id, db.logLocked(addOp(id, s))
}

// checkSegments rejects, before anything is touched, a segment outside
// the world.
func checkSegments(segs ...Segment) error {
	for _, s := range segs {
		if !geom.World().ContainsPoint(s.P1) || !geom.World().ContainsPoint(s.P2) {
			return fmt.Errorf("%w: segment %v outside the %dx%d world", ErrInvalidArgument, s, WorldSize, WorldSize)
		}
	}
	return nil
}

// unlock folds the comparisons the write charged to wop into the ledger
// and releases the writer lock. Every write path that can compare
// anything releases the lock through it.
func (db *DB) unlock() {
	db.foldWrite()
	db.mu.Unlock()
}

// foldWrite moves wop's comparisons into the ledger and resets it. Code
// that writes before the database escapes (Open, recovery) calls it
// directly.
func (db *DB) foldWrite() {
	db.ledger.Fold(db.wop.Stats())
	db.wop = obs.Op{}
}

// addLocked applies an add of a checked segment in place: the table
// append, then the index insert.
func (db *DB) addLocked(s Segment) (SegmentID, error) {
	id, err := db.table.Append(s)
	if err != nil {
		return seg.NilID, err
	}
	if err := db.index.Insert(id, &db.wop); err != nil {
		return seg.NilID, err
	}
	return id, nil
}

// Get fetches a segment's endpoints (counting one segment comparison,
// like any access to the disk-resident segment table).
func (db *DB) Get(id SegmentID) (Segment, error) {
	// In staged mode the table is append-only with an atomic record count
	// and a latched pool; reads need no database lock.
	if !db.stagedMode() {
		db.mu.RLock()
		defer db.mu.RUnlock()
	}
	var o obs.Op
	s, err := db.table.GetObs(id, &o)
	db.ledger.Fold(o.Stats())
	return s, err
}

// Delete removes a segment from the index. The table slot is retained
// (the table is append-only, as in the paper's testbed). In staged-
// ingest mode the delete is absorbed by the staging tier — a memtable
// mark for a staged segment, a snapshot tombstone for a base one — and
// applied to the disk index at the next compaction.
func (db *DB) Delete(id SegmentID) error {
	db.mu.Lock()
	defer db.unlock()
	if err := db.settleLocked(); err != nil {
		return err
	}
	if db.stagedMode() {
		return db.deleteStagedLocked(id)
	}
	// A miss (an ID past the table, absent or already deleted) touches no
	// page in any kind: a validation error, as in staged mode.
	if int(id) >= db.table.Len() {
		return seg.ErrNotIndexed
	}
	if err := db.index.Delete(id, &db.wop); errors.Is(err, seg.ErrNotIndexed) {
		return err
	} else if err != nil {
		return db.failLocked(err)
	}
	return db.logLocked(delOp(id))
}

// Window visits every segment intersecting r (query 5 of the paper).
// Queries may run from any number of goroutines; visit must not call
// back into writer methods of the same DB (Add, Delete, DropCaches, ...)
// or it will deadlock on the writer lock. It is a convenience wrapper
// over WindowCtx with a background context and the stats discarded.
func (db *DB) Window(r Rect, visit func(SegmentID, Segment) bool) error {
	_, err := db.WindowCtx(context.Background(), r, visit)
	return err
}

// Nearest returns the segment closest to p (query 3). Found is false only
// for an empty database. It is a convenience wrapper over NearestCtx
// with a background context and the stats discarded.
func (db *DB) Nearest(p Point) (NearestResult, error) {
	res, _, err := db.NearestCtx(context.Background(), p)
	return res, err
}

// NearestK returns up to k segments ordered by increasing distance from p
// (incremental distance ranking — "find the nearest three subway lines").
// It is a convenience wrapper over NearestKCtx with a background context
// and the stats discarded.
func (db *DB) NearestK(p Point, k int) ([]NearestResult, error) {
	res, _, err := db.NearestKCtx(context.Background(), p, k)
	return res, err
}

// IncidentAt visits the segments having an endpoint exactly at p
// (query 1). It is a convenience wrapper over IncidentAtCtx with a
// background context and the stats discarded.
func (db *DB) IncidentAt(p Point, visit func(SegmentID, Segment) bool) error {
	_, err := db.IncidentAtCtx(context.Background(), p, visit)
	return err
}

// OtherEndpoint visits the segments incident at the other endpoint of
// segment id, given one endpoint p (query 2). It is a convenience
// wrapper over OtherEndpointCtx with a background context and the stats
// discarded.
func (db *DB) OtherEndpoint(id SegmentID, p Point, visit func(SegmentID, Segment) bool) error {
	_, err := db.OtherEndpointCtx(context.Background(), id, p, visit)
	return err
}

// EnclosingPolygon returns the boundary of the map face containing p
// (query 4). The database must hold a noded planar map for the result to
// be meaningful. It is a convenience wrapper over EnclosingPolygonCtx
// with a background context and the stats discarded.
func (db *DB) EnclosingPolygon(p Point) (Polygon, error) {
	poly, _, err := db.EnclosingPolygonCtx(context.Background(), p)
	return poly, err
}

// Metrics returns the cumulative counter snapshot; subtract two snapshots
// to cost an operation. Beyond the paper's three counters it carries the
// buffer-pool hit statistics (PoolHits, PoolRequests, HitRatio), so cache
// effectiveness is visible. Metrics may be called at any time, including
// while queries are in flight, and never runs backwards: the comparisons
// come from the ledger every finished query and write folds into, and
// the disk and pool figures from the devices, those of index pools a
// bulk rebuild retired included. The staged-ingest counters (StagedOps,
// Compactions, BulkMerges) are facade-level and filled in here.
func (db *DB) Metrics() Metrics {
	db.devMu.Lock()
	m := db.retired.Add(core.Devices(db.pool.Stats(), db.table.DiskStats()))
	db.devMu.Unlock()
	m.SegComps, m.NodeComps = db.ledger.Comps()
	m.StagedOps = db.stagedOps.Load()
	m.Compactions = db.compactions.Load()
	m.BulkMerges = db.bulkMerges.Load()
	return m
}

// DecodeCacheStats reports the decode-once node cache's counters on the
// index buffer pool: hits are page requests served from a frame's cached
// decoded node (the binary decode was skipped), misses are requests that
// had to decode. Every index kind reads through it: the R-tree family
// caches struct-of-arrays nodes, the PMR quadtree and the uniform grid the
// nodes of their B+-tree. The cache sits behind the disk-access
// accounting — it changes neither reads, writes, nor pool hits — so
// these counters are pure CPU-cost observability.
func (db *DB) DecodeCacheStats() (hits, misses uint64) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.pool.DecodeStats()
}

// IndexSizeBytes returns the storage footprint of the index pages
// (excluding the segment table).
func (db *DB) IndexSizeBytes() int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.index.SizeBytes()
}

// TableSizeBytes returns the storage footprint of the segment table.
func (db *DB) TableSizeBytes() int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.table.SizeBytes()
}

// DropCaches empties both buffer pools, simulating a cold restart.
// Dirty frames are flushed first; with an active fault policy the flush
// can fail, leaving the caches partially dropped.
//
// In legacy mode DropCaches takes the writer lock: it must not (and,
// enforced here, cannot) run concurrently with queries — a query holds
// no pin between page requests, but does hold one for the length of a
// node decode or a segment-page copy, and dropping a pinned page panics.
// In staged-ingest mode queries hold no lock, so DropCaches instead drops
// every unpinned frame and leaves alone the few a snapshot reader is
// decoding or copying at that instant; everything else goes cold.
func (db *DB) DropCaches() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.stagedMode() {
		if _, err := db.pool.DropUnpinned(); err != nil {
			return err
		}
		_, err := db.table.Pool().DropUnpinned()
		return err
	}
	if err := db.index.DropCache(); err != nil {
		return err
	}
	return db.table.DropCache()
}

// SetFaultPolicy attaches a fault-injection policy to both of the
// database's simulated disks (index and segment table), modelling a
// single failing device. Pass nil to detach. It takes the writer lock, so
// a policy never attaches mid-query.
func (db *DB) SetFaultPolicy(p *store.FaultPolicy) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.pool.Disk().SetFaultPolicy(p)
	db.table.Disk().SetFaultPolicy(p)
}

// Index exposes the underlying core.Index for advanced use (experiment
// harnesses); most callers should use the DB methods. In staged-ingest
// mode it returns the current snapshot's merged view, so direct index
// queries see exactly what DB queries see.
func (db *DB) Index() core.Index {
	if s := db.snap.Load(); s != nil {
		return s.merged
	}
	return db.index
}
