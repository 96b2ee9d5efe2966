package segdb

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"

	"segdb/internal/bulk"
)

// normalizeParallelism clamps a requested worker count: zero or negative
// means "one worker per available CPU".
func normalizeParallelism(p int) int {
	if p <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p
}

// WindowBatchCtx runs one window query per rectangle, fanning the
// queries across a worker pool, and returns one QueryStats per
// rectangle: stats[q] is exactly the cost of the window query over
// rects[q], whichever worker ran it and whatever else was in flight.
//
// visit is called as visit(query, id, s) for every segment s
// intersecting rects[query]; it may be invoked from several goroutines
// at once (synchronize any shared state it touches) and returning false
// cancels the whole batch (a nil error). Canceling ctx aborts every
// in-flight query before its next page fetch and returns ctx's error;
// queries not yet started never run, leaving their stats zero.
// parallelism <= 0 uses GOMAXPROCS workers.
//
// The batch holds one read acquisition — the database's reader lock,
// or in staged-ingest mode one pinned snapshot, so every rectangle of
// the batch sees the same version. It runs concurrently with other
// queries but never against a half-applied write. Per-query result sets
// are identical to sequential execution; the paper's counters (disk page
// requests, segment comparisons, bounding box computations) total
// exactly the same as a sequential replay, though the split of page
// requests into pool hits versus misses depends on how the workers
// interleave.
func (db *DB) WindowBatchCtx(ctx context.Context, rects []Rect, parallelism int, visit func(query int, id SegmentID, s Segment) bool) ([]QueryStats, error) {
	h := db.acquireRead()
	defer h.release()
	ix := h.index()
	if len(rects) == 0 {
		return nil, nil
	}
	stats := make([]QueryStats, len(rects))
	var stop atomic.Bool // a visitor said stop; drain the remaining queries
	err := bulk.ParallelRange(len(rects), normalizeParallelism(parallelism), func(q int) error {
		o := db.begin(ctx, qkWindowBatch)
		o.SetEpoch(h.version())
		canceled := false
		werr := ix.WindowObs(rects[q], func(id SegmentID, s Segment) bool {
			if stop.Load() {
				canceled = true
				return false
			}
			if !visit(q, id, s) {
				stop.Store(true)
				canceled = true
				return false
			}
			return true
		}, o)
		stats[q], _ = db.finish(qkWindowBatch, o, werr)
		if werr != nil {
			return werr
		}
		if canceled {
			return ErrCanceled
		}
		return nil
	})
	if errors.Is(err, ErrCanceled) {
		// The batch's own visitor stopped it; that is not a failure.
		err = nil
	}
	return stats, err
}

// WindowBatch is a convenience wrapper over WindowBatchCtx with a
// background context and the per-query stats discarded.
func (db *DB) WindowBatch(rects []Rect, parallelism int, visit func(query int, id SegmentID, s Segment) bool) error {
	_, err := db.WindowBatchCtx(context.Background(), rects, parallelism, visit)
	return err
}
