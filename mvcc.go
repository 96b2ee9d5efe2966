// MVCC snapshot reads and LSM-staged ingest (staged-ingest mode).
//
// A database opened with WithStagedIngest publishes an immutable
// snapshot — the current epoch's base index overlaid with the staged
// memtable at a fixed version — through one atomic pointer. Queries pin
// the snapshot's epoch, run entirely against that immutable view, and
// unpin; they acquire no lock of any kind, so writers never block
// readers and readers never block writers.
//
// Writers (still serialized among themselves by the writer half of
// db.mu) append into the staging memtable, bump the version, and
// publish a fresh snapshot. Deletes of base segments become tombstones
// carried by the snapshot; deletes of staged segments mark the
// memtable entry. When the staging tier grows past the compaction
// threshold (or on an explicit Compact), the writer folds base-minus-
// tombstones plus the live staged segments into a brand-new bulk-built
// index on a fresh disk, publishes it under a new epoch, and retires
// the old epoch — in-flight readers pinned to the old epoch keep
// querying the old index and pool, untouched, until they finish.
package segdb

import (
	"fmt"
	"slices"

	"segdb/internal/core"
	"segdb/internal/seg"
	"segdb/internal/staging"
	"segdb/internal/store"
)

// ErrNotStaged is returned by staged-ingest-only operations (Compact)
// on a database opened without WithStagedIngest. It matches
// ErrInvalidArgument via errors.Is.
var ErrNotStaged = fmt.Errorf("%w: staged ingest not enabled (open with WithStagedIngest)", ErrInvalidArgument)

// dbSnapshot is one published read view: an epoch (whose pin count
// keeps compaction observability honest), the version (count of
// mutations visible), and the merged base∪staged−tombstones index the
// query engine runs against. Immutable once stored in db.snap.
type dbSnapshot struct {
	epoch   *store.Epoch
	version uint64
	merged  *staging.Merged
}

// readHandle is the unified read-side acquisition: a pinned snapshot in
// staged mode, the reader lock in legacy mode. It is a value type so
// acquiring and releasing stay allocation-free on warm query paths.
type readHandle struct {
	db   *DB
	snap *dbSnapshot // nil ⇒ legacy mode, reader lock held
}

// acquireRead pins the current snapshot (staged mode, no locking) or
// takes the reader lock (legacy mode). Every query path goes through
// here; release with h.release().
func (db *DB) acquireRead() readHandle {
	if db.snap.Load() != nil {
		return readHandle{db: db, snap: db.pinSnapshot()}
	}
	db.mu.RLock()
	db.lockedReads.Add(1)
	return readHandle{db: db}
}

// index returns the read view the query must run against.
func (h readHandle) index() core.Index {
	if h.snap != nil {
		return h.snap.merged
	}
	return h.db.index
}

// version returns the pinned snapshot's version (0 in legacy mode).
func (h readHandle) version() uint64 {
	if h.snap != nil {
		return h.snap.version
	}
	return 0
}

// release unpins the snapshot or drops the reader lock.
func (h readHandle) release() {
	if h.snap != nil {
		h.snap.epoch.Unpin()
	} else {
		h.db.mu.RUnlock()
	}
}

// pinSnapshot loads the current snapshot and pins its epoch, retrying
// if a writer published a successor in between — so the pin always
// lands on a snapshot that was current at pin time, and the epoch's pin
// count is exact.
func (db *DB) pinSnapshot() *dbSnapshot {
	for {
		s := db.snap.Load()
		s.epoch.Pin()
		if db.snap.Load() == s {
			return s
		}
		s.epoch.Unpin()
	}
}

// stagedMode reports whether the database runs staged ingest. Writer
// paths may read it without the lock (the mode is fixed at open).
func (db *DB) stagedMode() bool { return db.snap.Load() != nil }

// initStaged arms staged-ingest mode on a constructed database: it
// installs an empty memtable under epoch 1 and publishes the first
// snapshot. The base index's live set is the table's already. Called
// before the DB escapes, so no locking.
func (db *DB) initStaged() {
	db.mem = staging.NewMem()
	db.curEpoch = store.NewEpoch(1)
	db.publishLocked()
}

// publishLocked builds the merged view of the writer's current state
// and stores it as the new snapshot. The atomic store is the release
// barrier that makes every memtable write before it visible to readers
// that load this snapshot. Caller holds the writer lock (or is inside
// init, before the DB escapes).
func (db *DB) publishLocked() {
	merged := staging.NewMerged(db.index, db.mem, db.mem.Len(), db.version, db.tombs, db.mem.Live())
	db.snap.Store(&dbSnapshot{epoch: db.curEpoch, version: db.version, merged: merged})
}

// addStagedLocked is the staged-mode Add body: append the geometry to
// the shared table, log, then stage the index entry in the memtable and
// publish. Logging before publishing means a write that fails is never
// visible. The disk index is untouched — that is the whole point.
func (db *DB) addStagedLocked(s Segment) (SegmentID, error) {
	id, err := db.table.Append(s)
	if err != nil {
		return seg.NilID, db.failLocked(err)
	}
	if err := db.logLocked(addOp(id, s)); err != nil {
		db.table.Kill(id) // an Add that returns no id is not live
		return seg.NilID, err
	}
	db.mem.Add(id, s)
	db.version++
	db.stagedOps.Add(1)
	db.publishLocked()
	return id, db.maybeCompactLocked()
}

// deleteStagedLocked is the staged-mode Delete body for a live id:
// once logged, a staged segment is marked dead in the memtable, and a
// base segment gains a tombstone in a copy-on-write sorted slice
// carried by the snapshot.
func (db *DB) deleteStagedLocked(id SegmentID) error {
	if err := db.logLocked(delOp(id)); err != nil {
		return err
	}
	db.table.Kill(id)
	db.version++
	if !db.mem.Delete(id, db.version) {
		// A base segment: the tombstone goes into a fresh copy, since
		// published snapshots hold the old one.
		j, _ := slices.BinarySearch(db.tombs, id)
		db.tombs = slices.Insert(slices.Clip(db.tombs), j, id)
	}
	db.stagedOps.Add(1)
	db.publishLocked()
	return db.maybeCompactLocked()
}

// maybeCompactLocked compacts when the staging tier has grown past the
// configured threshold.
func (db *DB) maybeCompactLocked() error {
	t := db.opts.CompactThreshold
	if t <= 0 {
		return nil
	}
	if db.mem.Len()+len(db.tombs) < t {
		return nil
	}
	return db.compactLocked()
}

// Compact folds the staging tier into the base index: the live base
// segments (minus tombstones) and the live staged segments are bulk-
// built into a brand-new index on a fresh disk, published under a new
// epoch. Readers pinned to the old epoch keep using the old index and
// pool untouched; new queries land on the compacted snapshot. With a
// WAL attached the compaction cuts a checkpoint (the staging tier is
// empty afterwards, so the checkpoint image is complete).
//
// Compact takes the writer lock: concurrent writers stall for the
// rebuild, readers never do. It returns ErrNotStaged on a database
// opened without WithStagedIngest.
func (db *DB) Compact() error {
	db.mu.Lock()
	defer db.unlock()
	if !db.stagedMode() {
		return ErrNotStaged
	}
	return db.compactLocked()
}

// compactLocked rebuilds and republishes under a new epoch. Caller
// holds the writer lock and has verified staged mode.
func (db *DB) compactLocked() error {
	// Survivors: the table's live slots, base and staged alike.
	if err := db.rebuildBulk(db.table.AppendLive(nil)); err != nil {
		return err
	}
	db.mem = staging.NewMem()
	db.tombs = nil
	// Nothing to free eagerly: the old epoch's index, pool, and disk are
	// garbage-collected once its last reader unpins.
	db.curEpoch = store.NewEpoch(db.curEpoch.ID() + 1)
	db.publishLocked()
	db.compactions.Add(1)
	if db.walfs != nil {
		// The rebuild replaced the index disk wholesale, and the log's
		// staged ops are folded into it. Cut a full checkpoint — the
		// memtable is empty again, so the image is the complete state. If
		// it fails, the log no longer matches the index, so one is owed.
		db.walSeq++
		return db.failLocked(db.checkpointLocked())
	}
	return nil
}

// Epoch returns the id of the current epoch (1 at open, +1 per
// compaction) and how many readers are pinned to it right now; both are
// 0 outside staged-ingest mode.
func (db *DB) Epoch() (id uint64, pins int64) {
	s := db.snap.Load()
	if s == nil {
		return 0, 0
	}
	return s.epoch.ID(), s.epoch.Pins()
}

// StagedSize returns the current staging-tier size: memtable entries
// plus base tombstones, the quantity compared against the compaction
// threshold. 0 outside staged-ingest mode.
func (db *DB) StagedSize() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	if !db.stagedMode() {
		return 0
	}
	return db.mem.Len() + len(db.tombs)
}

// LockedReads returns how many times a query path acquired the
// database's reader lock. In staged-ingest mode this stays at 0 — the
// property the lock-free read path is built around, asserted by the
// concurrency stress tests.
func (db *DB) LockedReads() uint64 { return db.lockedReads.Load() }
