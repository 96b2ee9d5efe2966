// Package obs is the per-query observability layer of the query API v2:
// a stats sink (Op) threaded through every query path, a Tracer hook
// interface for query lifecycle events, and lock-free histograms for the
// facade's latency/disk-access profiles.
//
// The paper's evaluation is per-query accounting — disk accesses, segment
// comparisons, and bounding box computations per window/nearest/polygon
// query. The global atomic counters of the store and the indexes total
// correctly under concurrency but cannot attribute cost to an individual
// query once two overlap. An *Op rides along with one logical query and
// receives exactly the charges that query causes, at the same sites that
// charge the global counters, so the two accountings always reconcile:
// with N concurrent queries, the sum of the N Op stats equals the global
// counter deltas for every interleaving-independent total (segment
// comparisons, node computations, pool page requests).
//
// A nil *Op is valid everywhere and charges nothing — the fast path for
// legacy callers and for internal operations (inserts, integrity scans)
// that only need the global totals.
package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Stats is the cost of one query in the paper's currencies plus the
// buffer-pool and wall-clock detail. It is the per-query analogue of the
// database-wide Metrics snapshot.
type Stats struct {
	// DiskReads counts buffer-pool misses this query caused: pages
	// fetched from the simulated disk.
	DiskReads uint64
	// DiskWrites counts dirty pages this query's fetches evicted and
	// wrote back. Which query pays an eviction depends on cache state,
	// so this field (like DiskReads alone) is interleaving-dependent.
	DiskWrites uint64
	// PoolHits counts page requests served from the buffer pools without
	// touching the disk.
	PoolHits uint64
	// PoolRequests = PoolHits + DiskReads; the total does not depend on
	// how concurrent queries interleave in the caches.
	PoolRequests uint64
	// SegComps counts fetches of segment geometry from the segment table
	// — the paper's "segment comparisons".
	SegComps uint64
	// NodeComps counts bounding box (R-trees) or bounding bucket
	// (PMR/grid) computations — the paper's third currency.
	NodeComps uint64
	// Retries counts disk operations that were retried after a transient
	// fault (and eventually succeeded or exhausted their RetryPolicy).
	Retries uint64
	// SkippedPages counts page fetches skipped under degraded-read mode:
	// the page was quarantined (checksum failure or exhausted retries)
	// and the query returned partial results instead of aborting. Always
	// zero outside degraded mode.
	SkippedPages uint64
	// StagedHits counts results this query served from the in-memory
	// staging tier (LSM memtable) rather than the base index snapshot.
	// Always zero outside staged-ingest mode; staging-tier work touches
	// no disk pages, so it appears in no other counter.
	StagedHits uint64
	// Epoch is the snapshot version the query ran against in
	// staged-ingest mode: the count of mutations visible to it. Two
	// queries with the same Epoch saw the identical database state.
	// Zero outside staged-ingest mode (where queries serialize against
	// writes with a lock instead).
	Epoch uint64
	// Wall is the elapsed wall-clock time of the query, filled in by
	// Op.Finish.
	Wall time.Duration
}

// DiskAccesses returns reads + writes, the paper's single "disk
// accesses" figure.
func (s Stats) DiskAccesses() uint64 { return s.DiskReads + s.DiskWrites }

// Add returns the field-wise sum (wall times add too, giving total busy
// time when summing over a batch). Epoch is not a counter: the sum
// keeps the receiver's.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		DiskReads:    s.DiskReads + o.DiskReads,
		DiskWrites:   s.DiskWrites + o.DiskWrites,
		PoolHits:     s.PoolHits + o.PoolHits,
		PoolRequests: s.PoolRequests + o.PoolRequests,
		SegComps:     s.SegComps + o.SegComps,
		NodeComps:    s.NodeComps + o.NodeComps,
		Retries:      s.Retries + o.Retries,
		SkippedPages: s.SkippedPages + o.SkippedPages,
		StagedHits:   s.StagedHits + o.StagedHits,
		Epoch:        s.Epoch,
		Wall:         s.Wall + o.Wall,
	}
}

// Sub returns the field-wise difference (for diffing two cumulative
// snapshots expressed as Stats). Epoch is not a counter: the difference
// keeps the receiver's.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		DiskReads:    s.DiskReads - o.DiskReads,
		DiskWrites:   s.DiskWrites - o.DiskWrites,
		PoolHits:     s.PoolHits - o.PoolHits,
		PoolRequests: s.PoolRequests - o.PoolRequests,
		SegComps:     s.SegComps - o.SegComps,
		NodeComps:    s.NodeComps - o.NodeComps,
		Retries:      s.Retries - o.Retries,
		SkippedPages: s.SkippedPages - o.SkippedPages,
		StagedHits:   s.StagedHits - o.StagedHits,
		Epoch:        s.Epoch,
		Wall:         s.Wall - o.Wall,
	}
}

// QueryInfo identifies one logical query to a Tracer.
type QueryInfo struct {
	// ID is the database's monotonically increasing query sequence
	// number.
	ID uint64
	// Kind names the query type ("window", "nearest", "nearestk",
	// "incident", "otherendpoint", "polygon", "overlay", "windowbatch").
	Kind string
}

// Op is the observation context of one in-flight query: the stats sink,
// the cancellation source, and the tracer, threaded by the facade through
// the index, the B-tree, the segment table, and the buffer pools.
//
// Each query owns its Op and runs on its caller's goroutine. The counter
// methods are atomic, so a snapshot may be read from any goroutine, and
// are no-ops on a nil receiver, so uninstrumented paths pay only a nil
// check.
//
// Page requests that reach a pool are charged at once; a traversal's node
// computations are counted locally and charged when it returns, and its
// segment fetches when its seg.Cursor closes (SegComps for all of them,
// PoolHits for those answered from the cursor's page copy). Stats read
// from a visitor lack those; Stats read after the index call are complete.
type Op struct {
	info   QueryInfo
	tracer Tracer
	done   <-chan struct{} // non-nil only for cancellable contexts
	ctx    context.Context
	start  time.Time
	end    time.Time

	// degraded is set once by the facade before the query runs (and read
	// concurrently by the buffer pools): quarantine-and-skip instead of
	// aborting on an unreadable page.
	degraded bool

	// epoch is the snapshot version the query pinned (staged-ingest
	// mode); set once by the facade before the query runs.
	epoch uint64

	diskReads  atomic.Uint64
	diskWrites atomic.Uint64
	poolHits   atomic.Uint64
	segComps   atomic.Uint64
	nodeComps  atomic.Uint64
	retries    atomic.Uint64
	skipped    atomic.Uint64
	staged     atomic.Uint64
}

// opPool recycles Op allocations across queries, so a warm query's hot
// path does not allocate even its stats sink. Ops returned by Begin that
// are never Released are simply collected by the GC.
var opPool = sync.Pool{New: func() any { return new(Op) }}

// Begin starts observing one query. ctx carries cancellation/deadline
// (context.Background() disables the check at zero cost); tracer may be
// nil. Begin emits the tracer's QueryStart event. The Op comes from a
// recycling pool: callers that reach their query's end may hand it back
// with Release.
func Begin(ctx context.Context, tracer Tracer, info QueryInfo) *Op {
	o := opPool.Get().(*Op)
	o.info = info
	o.tracer = tracer
	o.ctx = ctx
	o.start = time.Now()
	o.end = time.Time{}
	o.done = nil
	o.degraded = false
	o.epoch = 0
	if ctx != nil {
		o.done = ctx.Done()
	}
	o.diskReads.Store(0)
	o.diskWrites.Store(0)
	o.poolHits.Store(0)
	o.segComps.Store(0)
	o.nodeComps.Store(0)
	o.retries.Store(0)
	o.skipped.Store(0)
	o.staged.Store(0)
	if tracer != nil {
		tracer.QueryStart(info)
	}
	return o
}

// Release hands the Op back to the allocation pool. The caller must be
// past the query's last charge (normally right after Finish) and must not
// retain o afterwards; Stats values already taken remain valid, being
// copies. Release on a nil Op is a no-op.
func (o *Op) Release() {
	if o == nil {
		return
	}
	o.tracer = nil
	o.ctx = nil
	o.done = nil
	opPool.Put(o)
}

// Info returns the query's identity.
func (o *Op) Info() QueryInfo {
	if o == nil {
		return QueryInfo{}
	}
	return o.info
}

// SetDegraded marks the query as running in degraded-read mode. It must
// be called before the query's first page request (the facade sets it
// right after Begin); the flag is then only read.
func (o *Op) SetDegraded(on bool) {
	if o == nil {
		return
	}
	o.degraded = on
}

// Degraded reports whether the query runs in degraded-read mode.
func (o *Op) Degraded() bool { return o != nil && o.degraded }

// SetEpoch records the snapshot version the query pinned (staged-ingest
// mode). Like SetDegraded it must be called before the query's first
// charge; the facade sets it right after Begin.
func (o *Op) SetEpoch(v uint64) {
	if o == nil {
		return
	}
	o.epoch = v
}

// StagedHit charges one result served from the staging tier.
func (o *Op) StagedHit() {
	if o == nil {
		return
	}
	o.staged.Add(1)
}

// Done exposes the query context's cancellation channel (nil when the
// query cannot be canceled, which blocks forever in a select — the
// desired behavior). The disk retry loop waits on it during backoff so a
// canceled query does not sit out its remaining sleeps.
func (o *Op) Done() <-chan struct{} {
	if o == nil {
		return nil
	}
	return o.done
}

// Canceled returns the context's error once it has been canceled or its
// deadline passed, and nil before then (and always nil on a nil Op or a
// background context). The buffer pools call it before every page
// request, which is what bounds a canceled query's overrun to a single
// page fetch.
func (o *Op) Canceled() error {
	if o == nil || o.done == nil {
		return nil
	}
	select {
	case <-o.done:
		return o.ctx.Err()
	default:
		return nil
	}
}

// PoolHits charges n page requests served from a buffer pool: one per
// request that reaches a pool, and at once the fetches a closing
// seg.Cursor answered from its page copy.
func (o *Op) PoolHits(n uint64) {
	if o == nil {
		return
	}
	o.poolHits.Add(n)
}

// PoolMiss charges one page request that went to the disk, emitting the
// tracer's PageFault event.
func (o *Op) PoolMiss(page uint32) {
	if o == nil {
		return
	}
	o.diskReads.Add(1)
	if o.tracer != nil {
		o.tracer.PageFault(o.info, page)
	}
}

// DiskWrite charges one write-back this query's page fetch caused
// (evicting a dirty frame).
func (o *Op) DiskWrite() {
	if o == nil {
		return
	}
	o.diskWrites.Add(1)
}

// Retry charges one retried disk operation.
func (o *Op) Retry() {
	if o == nil {
		return
	}
	o.retries.Add(1)
}

// PageSkipped charges one page fetch skipped under degraded-read mode.
func (o *Op) PageSkipped() {
	if o == nil {
		return
	}
	o.skipped.Add(1)
}

// SegComps charges n segment comparisons (segment-table fetches).
func (o *Op) SegComps(n uint64) {
	if o == nil {
		return
	}
	o.segComps.Add(n)
}

// NodeComps charges n bounding box / bucket computations.
func (o *Op) NodeComps(n uint64) {
	if o == nil {
		return
	}
	o.nodeComps.Add(n)
}

// NodeVisit emits the tracer's NodeVisit event for one index node (an
// R-tree node page or a B-tree page). It charges nothing; node traversal
// cost is already visible as pool requests.
func (o *Op) NodeVisit(page uint32) {
	if o == nil || o.tracer == nil {
		return
	}
	o.tracer.NodeVisit(o.info, page)
}

// Stats returns the charges so far. Wall is the time since Begin; after
// Finish it is the final elapsed time.
func (o *Op) Stats() Stats {
	if o == nil {
		return Stats{}
	}
	hits := o.poolHits.Load()
	reads := o.diskReads.Load()
	return Stats{
		DiskReads:    reads,
		DiskWrites:   o.diskWrites.Load(),
		PoolHits:     hits,
		PoolRequests: hits + reads,
		SegComps:     o.segComps.Load(),
		NodeComps:    o.nodeComps.Load(),
		Retries:      o.retries.Load(),
		SkippedPages: o.skipped.Load(),
		StagedHits:   o.staged.Load(),
		Epoch:        o.epoch,
		Wall:         o.wall(),
	}
}

// wall returns the elapsed time, frozen by Finish.
func (o *Op) wall() time.Duration {
	if !o.end.IsZero() {
		return o.end.Sub(o.start)
	}
	return time.Since(o.start)
}

// Finish freezes the wall clock, emits the tracer's QueryFinish event,
// and returns the final stats. It must be called exactly once, after the
// query's last charge.
func (o *Op) Finish(err error) Stats {
	if o == nil {
		return Stats{}
	}
	o.end = time.Now()
	st := o.Stats()
	if o.tracer != nil {
		o.tracer.QueryFinish(o.info, st, err)
	}
	return st
}
