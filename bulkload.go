package segdb

import (
	"segdb/internal/core"
	"segdb/internal/seg"
	"segdb/internal/store"
)

// AddBatch stores the segments and indexes them in one shot, returning
// their IDs in input order. On an empty database the index is built
// bottom-up through the bulk pipeline (internal/bulk), on the calling
// goroutine: segments are sorted and partitioned in memory, then every
// index page is written exactly once, sequentially — for a county-sized
// map this is an order of magnitude fewer build disk accesses than
// calling Add per segment, and the result answers every query through
// the same code paths. The build is deterministic: the same batch
// produces a byte-identical disk image for any GOMAXPROCS setting.
//
// On a non-empty database AddBatch is a bulk merge: the batch is
// appended to the segment table and the index is rebuilt bottom-up over
// the union of its live segments and the batch — bulk-class disk
// accesses (every index page written once, sequentially) instead of the
// per-segment insert-split churn a loop over Add pays. Each such merge
// is counted in Metrics.BulkMerges.
//
// AddBatch holds the writer lock for the whole batch, so queries never
// observe a half-ingested batch. In staged-ingest mode the batch is
// staged (one WAL commit) and compacted inline — readers keep reading
// throughout; the batch appears atomically.
func (db *DB) AddBatch(segs []Segment) ([]SegmentID, error) {
	db.mu.Lock()
	defer db.unlock()
	return db.batchLocked(segs)
}

// batchLocked is the body of AddBatch and LoadPacked.
func (db *DB) batchLocked(segs []Segment) ([]SegmentID, error) {
	if err := db.settleLocked(); err != nil {
		return nil, err
	}
	if err := checkSegments(segs...); err != nil {
		return nil, err
	}
	if db.stagedMode() {
		return db.addBatchStagedLocked(segs)
	}
	ids, err := db.addBatchLocked(segs)
	return ids, db.failLocked(err)
}

// appendBatch appends the checked batch to the segment table, returning
// the new ids in input order.
func (db *DB) appendBatch(segs []Segment) ([]SegmentID, error) {
	ids := make([]SegmentID, 0, len(segs))
	for _, s := range segs {
		id, err := db.table.Append(s)
		if err != nil {
			return nil, err
		}
		ids = append(ids, id)
	}
	return ids, nil
}

func (db *DB) addBatchLocked(segs []Segment) ([]SegmentID, error) {
	merge := db.table.Len() != 0
	var all []seg.ID
	if merge {
		// Bulk merge: the survivors of the current index (live segments
		// only — deleted table slots stay dead) plus the batch.
		existing, err := db.collectLiveIDs(db.index, &db.wop)
		if err != nil {
			return nil, err
		}
		all = existing
	}
	ids, err := db.appendBatch(segs)
	if err != nil {
		return nil, err
	}
	all = append(all, ids...) // batch ids are allocated past every existing id
	if err := db.rebuildBulk(all); err != nil {
		return nil, err
	}
	if merge {
		db.bulkMerges.Add(1)
	}
	if db.walfs != nil {
		// The bulk build replaced the index disk wholesale, so op records
		// would replay it as one-at-a-time inserts; cut a full checkpoint
		// instead.
		db.walSeq++
		if err := db.checkpointLocked(); err != nil {
			return nil, err
		}
	}
	return ids, nil
}

// addBatchStagedLocked ingests a batch in staged-ingest mode: every
// segment is appended and logged under one WAL commit, then staged
// (readers see the batch as soon as the snapshot publishes, without the
// index rebuild in their way), and the staging tier is compacted inline
// — the batch reaches the disk index at bulk-build cost while
// concurrent readers never block.
func (db *DB) addBatchStagedLocked(segs []Segment) ([]SegmentID, error) {
	ids, err := db.appendBatch(segs)
	if err == nil {
		ops := make([]store.WALStagedOp, len(ids))
		for i, id := range ids {
			ops[i] = addOp(id, segs[i])
		}
		err = db.logLocked(ops...)
	}
	if err != nil {
		return nil, db.failLocked(err)
	}
	for i, id := range ids {
		db.mem.Add(id, segs[i])
		db.version++
	}
	db.stagedOps.Add(uint64(len(ids)))
	db.publishLocked()
	if err := db.compactLocked(); err != nil {
		return nil, err
	}
	db.bulkMerges.Add(1)
	return ids, nil
}

// rebuildBulk replaces the database's index with one bulk-built over ids,
// charging the build to wop, on a fresh disk so the old index's abandoned
// pages do not linger in the file. A fault policy live on the old disk
// carries over, and the old pool's device counters move to retired.
func (db *DB) rebuildBulk(ids []seg.ID) error {
	disk := store.NewDisk(db.opts.PageSize)
	if p := db.pool.Disk().FaultPolicy(); p != nil {
		disk.SetFaultPolicy(p)
	}
	// The retry policy carries over to the successor disk too.
	if rp := db.pool.Disk().RetryPolicy(); rp != nil {
		disk.SetRetryPolicy(rp)
	}
	pool := store.NewPool(disk, db.opts.PoolPages)
	ix, err := kinds[db.kind].bulk(db.opts, db.kind, pool, db.table, ids, &db.wop)
	if err != nil {
		return err
	}
	db.devMu.Lock()
	db.retired = db.retired.Add(core.Devices(db.pool.Stats()))
	db.pool = pool
	db.devMu.Unlock()
	db.index = ix
	return nil
}
