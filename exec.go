package segdb

import "context"

// WindowBatchCtx runs one window query per rectangle, in rectangle
// order on the calling goroutine, and returns one QueryStats per
// rectangle: stats[q] is exactly the cost of the window query over
// rects[q].
//
// visit is called as visit(query, id, s) for every segment s
// intersecting rects[query]; returning false ends the whole batch with
// a nil error. Canceling ctx aborts the batch before its next page
// fetch and returns ctx's error; the rectangles after the one that saw
// the cancellation never run, leaving their stats zero.
//
// The batch holds one read acquisition — the database's reader lock,
// or in staged-ingest mode one pinned snapshot, so every rectangle of
// the batch sees the same version. It runs concurrently with other
// queries but never against a half-applied write. Each rectangle's
// answer and counters are those of a lone window query run at the same
// point.
func (db *DB) WindowBatchCtx(ctx context.Context, rects []Rect, visit func(query int, id SegmentID, s Segment) bool) ([]QueryStats, error) {
	h := db.acquireRead()
	defer h.release()
	ix := h.index()
	if len(rects) == 0 {
		return nil, nil
	}
	stats := make([]QueryStats, len(rects))
	for q := range rects {
		o := db.begin(ctx, qkWindowBatch)
		o.SetEpoch(h.version())
		stopped := false
		werr := ix.WindowObs(rects[q], func(id SegmentID, s Segment) bool {
			stopped = !visit(q, id, s)
			return !stopped
		}, o)
		var err error
		if stats[q], err = db.finish(qkWindowBatch, o, werr); err != nil || stopped {
			return stats, err
		}
	}
	return stats, nil
}
