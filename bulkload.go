package segdb

import (
	"fmt"

	"segdb/internal/geom"
	"segdb/internal/seg"
	"segdb/internal/store"
)

// AddBatch stores the segments and indexes them in one shot, returning
// their IDs in input order. On an empty database the index is built
// bottom-up through the bulk pipeline (internal/bulk): segments are
// sorted and partitioned in memory across GOMAXPROCS workers, then every
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
	defer db.mu.Unlock()
	if db.stagedMode() {
		return db.addBatchStagedLocked(segs)
	}
	return db.addBatchLocked(segs)
}

// appendBatch validates and appends the batch to the segment table,
// returning the new ids in input order.
func (db *DB) appendBatch(segs []Segment) ([]SegmentID, error) {
	ids := make([]SegmentID, 0, len(segs))
	for _, s := range segs {
		if !geom.World().ContainsPoint(s.P1) || !geom.World().ContainsPoint(s.P2) {
			return nil, fmt.Errorf("%w: segment %v outside the %dx%d world", ErrInvalidArgument, s, WorldSize, WorldSize)
		}
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
		existing, err := db.collectLiveIDs(db.index)
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
		// The bulk build replaced the index disk wholesale, so incremental
		// page logging cannot describe it; cut a full checkpoint instead.
		db.walSeq++
		if err := db.checkpointLocked(); err != nil {
			return nil, err
		}
	}
	return ids, nil
}

// addBatchStagedLocked ingests a batch in staged-ingest mode: every
// segment is staged (readers see the batch as soon as the snapshot
// publishes, without the index rebuild in their way), the staged
// operations are sealed by one WAL commit, and the staging tier is
// compacted inline — the batch reaches the disk index at bulk-build
// cost while concurrent readers never block.
func (db *DB) addBatchStagedLocked(segs []Segment) ([]SegmentID, error) {
	ids, err := db.appendBatch(segs)
	if err != nil {
		return nil, err
	}
	for i, id := range ids {
		db.mem.Add(id, segs[i])
		db.version++
	}
	db.stagedOps.Add(uint64(len(ids)))
	db.publishLocked()
	if db.wal != nil {
		for i, id := range ids {
			s := segs[i]
			if err := db.wal.AppendStaged(store.WALStagedOp{
				ID:     uint32(id),
				Coords: [4]int32{s.P1.X, s.P1.Y, s.P2.X, s.P2.Y},
			}); err != nil {
				return nil, err
			}
		}
		if err := db.walCommit(); err != nil {
			return nil, err
		}
	}
	if err := db.compactLocked(); err != nil {
		return nil, err
	}
	db.bulkMerges.Add(1)
	return ids, nil
}

// rebuildBulk replaces the database's (empty) index with one bulk-built
// over ids, on a fresh disk so the old index's abandoned pages do not
// linger in the file. A fault policy live on the old disk carries over.
func (db *DB) rebuildBulk(ids []seg.ID) error {
	disk := store.NewDisk(db.opts.PageSize)
	if p := db.pool.Disk().FaultPolicy(); p != nil {
		disk.SetFaultPolicy(p)
	}
	// Runtime disk state carries over to the successor disk: the retry
	// policy, and write journaling when a WAL is attached.
	if rp := db.pool.Disk().RetryPolicy(); rp != nil {
		disk.SetRetryPolicy(rp)
	}
	if db.walfs != nil {
		disk.SetJournal(true)
	}
	pool := store.NewPool(disk, db.opts.PoolPages)
	ix, err := kinds[db.kind].bulk(db.opts, db.kind, pool, db.table, ids)
	if err != nil {
		return err
	}
	db.pool = pool
	db.index = ix
	return nil
}
