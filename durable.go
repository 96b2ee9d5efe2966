// Durability layer: write-ahead logging, the two-file checkpoint
// protocol, crash recovery, and degraded-read repair (Scrub).
//
// A database opened with WithWAL (or WithWALFS) keeps two files in its
// log directory:
//
//   - checkpoint.segdb — an atomic snapshot of the whole database: a
//     small CRC-protected prelude (epoch, mutation count) followed by
//     the Save image. It is always replaced via write-temp + fsync +
//     rename, so a crash leaves either the old checkpoint or the new
//     one, never a torn hybrid.
//   - wal.log — the write-ahead log. Every mutation (Add, Delete,
//     Load, AddBatch) appends the page images it changed and seals them
//     with a CRC-framed commit record carrying the free lists, page
//     counts, table length, and index metadata; the commit is synced
//     before the mutation returns. Replay is prefix-valid: recovery
//     applies committed transactions in order and discards the tail at
//     the first torn or corrupt frame.
//
// Commit records are stamped with an epoch so a log that was not yet
// truncated when the process died cannot smear stale pages over a newer
// checkpoint: a checkpoint at epoch E is followed by commits at epoch
// E+1, and recovery replays only commits with epoch > E.
package segdb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	iofs "io/fs"
	"runtime"
	"slices"

	"segdb/internal/seg"
	"segdb/internal/store"
)

// Durability and fault-tolerance types, re-exported from internal/store.
type (
	// RetryPolicy makes both disks retry transiently failing page reads
	// and writes with exponential backoff; see WithRetryPolicy.
	RetryPolicy = store.RetryPolicy
	// WALFS is the filesystem surface the WAL and checkpoint protocol
	// write through; see WithWALFS.
	WALFS = store.WALFS
	// MemWALFS is an in-memory WALFS with deterministic crash injection
	// for recovery harnesses.
	MemWALFS = store.MemWALFS
	// PageID identifies a page of one of the database's simulated disks.
	PageID = store.PageID
)

// NewMemWALFS returns an empty in-memory WAL filesystem (crash-injection
// harnesses; production code uses WithWAL over a real directory).
func NewMemWALFS() *MemWALFS { return store.NewMemWALFS() }

// File names inside the WAL directory.
const (
	walFileName     = "wal.log"
	ckptFileName    = "checkpoint.segdb"
	ckptTmpFileName = "checkpoint.tmp"
)

// ckptMagic opens a checkpoint file ("SDBCKP" + version); the prelude
// that follows is epoch (u64), seq (u64), and a CRC32 of the first 24
// bytes, then the regular Save image (which carries its own checksums).
var ckptMagic = [8]byte{'S', 'D', 'B', 'C', 'K', 'P', '0', '1'}

const ckptPreludeSize = 8 + 8 + 8 + 4

// initWAL arms durability on a freshly opened (empty) database: it
// refuses a directory that already holds a checkpoint (that state wants
// Recover, not an overwrite), turns on write journaling, and cuts the
// initial checkpoint + empty log.
func (db *DB) initWAL(wfs store.WALFS) error {
	if _, err := wfs.ReadFile(ckptFileName); err == nil {
		return fmt.Errorf("segdb: WAL directory already holds a checkpoint; use Recover to reopen it (or remove %s to start fresh)", ckptFileName)
	} else if !errors.Is(err, iofs.ErrNotExist) {
		return err
	}
	db.walfs = wfs
	db.walEpoch = 0
	db.walSeq = 0
	db.pool.Disk().SetJournal(true)
	db.table.Disk().SetJournal(true)
	return db.checkpointLocked()
}

// walCommit captures every page changed since it was last logged into
// the WAL and seals them with a synced commit record. Only then are the
// captured frames marked logged: a failed append leaves them to the next
// commit. Callers hold the writer lock; with no WAL attached it is a
// no-op.
func (db *DB) walCommit() error {
	if db.wal == nil {
		return nil
	}
	db.walSeq++
	if err := db.walCapture(store.WALDiskIndex, db.pool); err != nil {
		return err
	}
	if err := db.walCapture(store.WALDiskTable, db.table.Pool()); err != nil {
		return err
	}
	if err := db.wal.AppendCommit(store.WALCommit{
		Epoch:      db.walEpoch,
		Seq:        db.walSeq,
		TableCount: uint32(db.table.Len()),
		Meta:       db.index.PersistMeta(),
		Disks:      db.walDiskStates(),
	}); err != nil {
		return err
	}
	db.pool.SealLogged()
	db.table.Pool().SealLogged()
	return nil
}

// walCapture logs the pages of one disk whose newest bytes are not in
// the log yet: dirty buffer-pool frames changed since they were last
// logged, plus journaled write-through pages not shadowed by a dirty
// frame (whose content is newer, and is logged by the frame pass of this
// commit or of the earlier one that sealed it).
func (db *DB) walCapture(diskTag uint8, pool *store.Pool) error {
	disk := pool.Disk()
	journal := disk.DrainJournal()
	err := pool.ForEachUnlogged(func(id store.PageID, data []byte) error {
		return db.wal.AppendPage(diskTag, id, data)
	})
	if err != nil {
		return err
	}
	for _, id := range journal {
		if pool.Dirty(id) {
			continue
		}
		data, rerr := disk.RawPage(id)
		if rerr != nil {
			return rerr
		}
		if err := db.wal.AppendPage(diskTag, id, data); err != nil {
			return err
		}
	}
	return nil
}

// walDiskStates snapshots both disks' page counts and free lists for a
// commit record.
func (db *DB) walDiskStates() [2]store.WALDiskState {
	var s [2]store.WALDiskState
	s[store.WALDiskIndex] = store.WALDiskState{
		Pages: uint32(db.pool.Disk().PageCount()),
		Free:  db.pool.Disk().FreeList(),
	}
	s[store.WALDiskTable] = store.WALDiskState{
		Pages: uint32(db.table.Disk().PageCount()),
		Free:  db.table.Disk().FreeList(),
	}
	return s
}

// Checkpoint folds the write-ahead log into a fresh atomic checkpoint
// and truncates the log. Recovery time is proportional to the log since
// the last checkpoint, so long-running writers should checkpoint
// periodically. It takes the writer lock.
//
// In staged-ingest mode a non-empty staging tier is compacted first:
// the checkpoint image is the disk state, so the invariant "checkpoint
// ⇒ empty memtable" keeps the image complete (compaction itself cuts
// the checkpoint in that case).
func (db *DB) Checkpoint() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.walfs == nil {
		return ErrNoWAL
	}
	if db.stagedMode() && (db.mem.Len() > 0 || len(db.tombs) > 0) {
		return db.compactLocked()
	}
	return db.checkpointLocked()
}

// checkpointLocked writes checkpoint epoch db.walEpoch via the two-file
// protocol (write temp in one call, sync, rename over the old file),
// then starts a fresh log and bumps the epoch for subsequent commits.
// A crash at any point leaves either the old checkpoint (with its still
// fully replayable log) or the new one (whose epoch filter ignores any
// leftover log).
func (db *DB) checkpointLocked() error {
	if err := db.table.Flush(); err != nil {
		return err
	}
	if err := db.pool.Flush(); err != nil {
		return err
	}
	// The flush's disk writes are part of the checkpoint image; drop them
	// from the journal so the next commit does not re-log them.
	db.pool.Disk().DrainJournal()
	db.table.Disk().DrainJournal()
	var buf bytes.Buffer
	buf.Write(ckptMagic[:])
	binary.Write(&buf, binary.LittleEndian, db.walEpoch)
	binary.Write(&buf, binary.LittleEndian, db.walSeq)
	binary.Write(&buf, binary.LittleEndian, crc32.ChecksumIEEE(buf.Bytes()))
	if err := db.writeSnapshot(&buf); err != nil {
		return err
	}
	f, err := db.walfs.Create(ckptTmpFileName)
	if err != nil {
		return err
	}
	// One Write call: a simulated crash tears the temp file, never the
	// live checkpoint, and the rename below is atomic.
	if _, err := f.Write(buf.Bytes()); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := db.walfs.Rename(ckptTmpFileName, ckptFileName); err != nil {
		return err
	}
	if db.wal != nil {
		db.wal.Close()
	}
	w, err := store.CreateWAL(db.walfs, walFileName)
	if err != nil {
		db.wal = nil
		return err
	}
	db.wal = w
	db.walEpoch++
	return nil
}

// RecoveryReport describes what Recover rebuilt.
type RecoveryReport struct {
	// CheckpointEpoch is the epoch of the checkpoint recovery started
	// from; CheckpointSeq its mutation count.
	CheckpointEpoch uint64
	CheckpointSeq   uint64
	// Transactions and PagesReplayed count the committed WAL work rolled
	// forward on top of the checkpoint.
	Transactions  int
	PagesReplayed int
	// TornTail reports that the log ended in a discarded tail — a
	// truncated or CRC-failed frame, or page records never sealed by a
	// commit — which is exactly what a mid-write crash leaves.
	TornTail bool
	// Seq is the mutation count of the recovered state.
	Seq uint64
	// StagedReplayed counts staged-ingest operations (memtable adds and
	// deletes) found in the log and folded into the rebuilt index.
	StagedReplayed int
}

// Recover reopens a crashed (or cleanly closed) durable database from
// its WAL directory: the latest checkpoint is loaded and every
// committed WAL transaction after it is replayed. The recovered
// database is durable again — a fresh checkpoint is cut and the log
// truncated before Recover returns. Options contribute runtime settings
// only (retry policy, degraded reads, fault policy, tracer); the
// structural configuration comes from the checkpoint image.
func Recover(dir string, opts ...Option) (*DB, *RecoveryReport, error) {
	wfs, err := store.NewDirWALFS(dir)
	if err != nil {
		return nil, nil, err
	}
	return RecoverFS(wfs, opts...)
}

// RecoverFS is Recover over an explicit WALFS (e.g. a MemWALFS crash
// harness).
func RecoverFS(wfs WALFS, opts ...Option) (*DB, *RecoveryReport, error) {
	st, err := replayDurableState(wfs)
	if err != nil {
		return nil, nil, err
	}
	o := resolveOptions(opts)
	dbOpts := st.opts
	dbOpts.FaultPolicy = o.FaultPolicy
	dbOpts.Tracer = o.Tracer
	dbOpts.RetryPolicy = o.RetryPolicy
	dbOpts.DegradedReads = o.DegradedReads
	dbOpts.StagedIngest = o.StagedIngest
	dbOpts.CompactThreshold = o.CompactThreshold
	pool := store.NewPool(st.disk, dbOpts.PoolPages)
	ix, err := restoreIndex(st.kind, dbOpts, pool, st.table, st.meta)
	if err != nil {
		return nil, nil, err
	}
	db := newDB(st.kind, dbOpts, st.table, pool, ix)
	db.walfs = wfs
	db.walEpoch = st.lastEpoch
	db.walSeq = st.seq
	db.pool.Disk().SetJournal(true)
	db.table.Disk().SetJournal(true)
	if len(st.staged) > 0 {
		// The log holds staged-ingest operations: the previous run's
		// memtable. Its segment geometry is already in the replayed table
		// pages; fold the operations into the index by rebuilding it over
		// the final live set ("recovery replays the memtable").
		if err := db.foldStagedRecovery(st.staged); err != nil {
			return nil, nil, err
		}
	}
	if err := db.checkpointLocked(); err != nil {
		return nil, nil, err
	}
	if o.StagedIngest {
		if err := db.initStaged(); err != nil {
			return nil, nil, err
		}
	}
	return db, &RecoveryReport{
		CheckpointEpoch: st.epoch,
		CheckpointSeq:   st.ckptSeq,
		Transactions:    st.txns,
		PagesReplayed:   st.pages,
		TornTail:        st.torn,
		Seq:             st.seq,
		StagedReplayed:  len(st.staged),
	}, nil
}

// foldStagedRecovery applies replayed staged operations to the
// recovered base index: the live set after the operations is the base's
// live segments plus staged adds minus every delete, and the index is
// bulk-rebuilt over it.
func (db *DB) foldStagedRecovery(ops []store.WALStagedOp) error {
	base, err := db.collectLiveIDs(db.index)
	if err != nil {
		return err
	}
	live := make(map[seg.ID]bool, len(base)+len(ops))
	for _, id := range base {
		live[id] = true
	}
	for _, op := range ops {
		if op.Del {
			delete(live, seg.ID(op.ID))
		} else {
			live[seg.ID(op.ID)] = true
		}
	}
	ids := make([]seg.ID, 0, len(live))
	for id := range live {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return db.rebuildBulk(ids)
}

// replayedState is the durable state of a WAL directory, materialized:
// the checkpoint image with every committed WAL transaction applied.
type replayedState struct {
	kind  Kind
	opts  Options
	meta  []uint64
	table *seg.Table
	disk  *store.Disk // index disk

	epoch     uint64 // checkpoint epoch
	ckptSeq   uint64 // checkpoint mutation count
	lastEpoch uint64 // epoch of the newest replayed commit (= epoch if none)
	seq       uint64 // mutation count after replay
	txns      int
	pages     int
	torn      bool

	// staged is the concatenation of every committed transaction's
	// staged-ingest operations, in commit order: the previous run's
	// memtable as the log remembers it.
	staged []store.WALStagedOp
}

// replayDurableState loads the checkpoint and rolls the WAL forward over
// it. Shared by Recover (which then builds a live DB from it) and Scrub
// (which uses it as the known-good source for repairing bad pages).
func replayDurableState(wfs store.WALFS) (*replayedState, error) {
	ckpt, err := wfs.ReadFile(ckptFileName)
	if err != nil {
		if errors.Is(err, iofs.ErrNotExist) {
			return nil, fmt.Errorf("segdb: no checkpoint in WAL directory (nothing to recover): %w", err)
		}
		return nil, err
	}
	if len(ckpt) < ckptPreludeSize || [8]byte(ckpt[:8]) != ckptMagic {
		return nil, fmt.Errorf("segdb: not a checkpoint file (magic %q)", ckpt[:min(len(ckpt), 8)])
	}
	if got, want := crc32.ChecksumIEEE(ckpt[:24]), binary.LittleEndian.Uint32(ckpt[24:28]); got != want {
		return nil, fmt.Errorf("segdb: checkpoint prelude checksum mismatch (file %#08x, computed %#08x): %w", want, got, store.ErrChecksum)
	}
	st := &replayedState{
		epoch:   binary.LittleEndian.Uint64(ckpt[8:16]),
		ckptSeq: binary.LittleEndian.Uint64(ckpt[16:24]),
	}
	st.kind, st.opts, st.meta, st.table, st.disk, err = loadImage(bytes.NewReader(ckpt[ckptPreludeSize:]))
	if err != nil {
		return nil, fmt.Errorf("segdb: loading checkpoint image: %w", err)
	}
	st.lastEpoch = st.epoch
	st.seq = st.ckptSeq
	walData, err := wfs.ReadFile(walFileName)
	if err != nil {
		if errors.Is(err, iofs.ErrNotExist) {
			// Crashed between the checkpoint rename and the new log's
			// creation: the checkpoint alone is the state.
			return st, nil
		}
		return nil, err
	}
	txns, torn, err := store.ReadWAL(walData, st.epoch)
	if err != nil {
		if len(walData) < 8 {
			// The log's magic itself was the torn write; an empty log.
			st.torn = true
			return st, nil
		}
		return nil, err
	}
	st.torn = torn
	var last *store.WALCommit
	for _, txn := range txns {
		for _, p := range txn.Pages {
			var disk *store.Disk
			switch p.Disk {
			case store.WALDiskIndex:
				disk = st.disk
			case store.WALDiskTable:
				disk = st.table.Disk()
			default:
				return nil, fmt.Errorf("segdb: WAL page for unknown disk %d", p.Disk)
			}
			disk.EnsurePages(int(p.Page) + 1)
			if err := disk.RawRestore(p.Page, p.Data); err != nil {
				return nil, err
			}
			st.pages++
		}
		st.txns++
		st.staged = append(st.staged, txn.Staged...)
		last = &txn.Commit
	}
	if last != nil {
		st.disk.EnsurePages(int(last.Disks[store.WALDiskIndex].Pages))
		st.disk.SetFreeList(last.Disks[store.WALDiskIndex].Free)
		st.table.Disk().EnsurePages(int(last.Disks[store.WALDiskTable].Pages))
		st.table.Disk().SetFreeList(last.Disks[store.WALDiskTable].Free)
		st.table.SetLen(int(last.TableCount))
		st.meta = last.Meta
		st.lastEpoch = last.Epoch
		st.seq = last.Seq
	}
	return st, nil
}

// ScrubReport is the outcome of DB.Scrub.
type ScrubReport struct {
	// CheckedPages is the number of in-use pages whose checksums were
	// verified (both disks).
	CheckedPages int
	// BadIndexPages and BadTablePages list the pages found corrupt or
	// quarantined on each disk, in ascending order.
	BadIndexPages []PageID
	BadTablePages []PageID
	// Repaired counts pages rewritten from the checkpoint + WAL;
	// Unrepairable counts pages for which the durable state held no
	// image (it stays quarantined).
	Repaired     int
	Unrepairable int
}

// Clean reports whether the scrub found nothing to repair.
func (r *ScrubReport) Clean() bool {
	return len(r.BadIndexPages) == 0 && len(r.BadTablePages) == 0
}

// Scrub walks both disks verifying every in-use page's checksum, then
// repairs each corrupt or quarantined page from the durable state (last
// checkpoint + committed WAL), clearing its quarantine so degraded-mode
// queries see the page again. Because every mutation commits to the WAL
// before returning, the durable state matches the live state and a
// repaired page is byte-identical to what the query path expects.
// It takes the writer lock.
func (db *DB) Scrub() (*ScrubReport, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.walfs == nil {
		return nil, ErrNoWAL
	}
	r := &ScrubReport{
		CheckedPages:  db.pool.Disk().PagesInUse() + db.table.Disk().PagesInUse(),
		BadIndexPages: badOrQuarantined(db.pool.Disk()),
		BadTablePages: badOrQuarantined(db.table.Disk()),
	}
	if r.Clean() {
		return r, nil
	}
	st, err := replayDurableState(db.walfs)
	if err != nil {
		return r, err
	}
	if err := db.repairPages(db.pool, st.disk, r.BadIndexPages, r); err != nil {
		return r, err
	}
	if err := db.repairPages(db.table.Pool(), st.table.Disk(), r.BadTablePages, r); err != nil {
		return r, err
	}
	// Repairs rewrote the pages through RawRestore, which bypasses the
	// journal; the durable state is their source, so there is nothing new
	// to log.
	return r, nil
}

// repairPages rewrites each bad page of the live disk from the shadow
// (durable) disk and discards any stale cached copy. In staged-ingest
// mode queries hold no lock, so a snapshot reader may have the stale
// frame pinned at this instant; pins are released at page granularity
// within queries, so a short bounded spin drains them. A frame that
// stays pinned is a bug, not contention — fail loudly rather than leave
// a silently stale cache over a repaired page.
func (db *DB) repairPages(pool *store.Pool, shadow *store.Disk, bad []PageID, r *ScrubReport) error {
	disk := pool.Disk()
	for _, id := range bad {
		data, err := shadow.RawPage(id)
		if err != nil {
			// The durable image has no such page (it was never committed);
			// leave it quarantined rather than fabricate contents.
			r.Unrepairable++
			continue
		}
		if err := disk.RawRestore(id, data); err != nil {
			return err
		}
		dropped := pool.Discard(id)
		for spin := 0; !dropped && spin < 10000; spin++ {
			runtime.Gosched()
			dropped = pool.Discard(id)
		}
		if !dropped {
			return fmt.Errorf("segdb: page %d stayed pinned throughout scrub repair; stale cache not discarded", id)
		}
		r.Repaired++
	}
	return nil
}

// badOrQuarantined returns the union of the disk's checksum-failing
// in-use pages and its quarantined pages, ascending.
func badOrQuarantined(d *store.Disk) []PageID {
	bad := append(d.BadPages(), d.Quarantined()...)
	slices.Sort(bad)
	return slices.Compact(bad)
}

// Quarantined returns the pages currently quarantined on each disk
// (skipped by degraded-mode queries until Scrub repairs them).
func (db *DB) Quarantined() (index, table []PageID) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.pool.Disk().Quarantined(), db.table.Disk().Quarantined()
}

// SetRetryPolicy attaches (or with nil detaches) a retry policy to both
// disks: transient injected read/write faults are retried with
// exponential backoff before surfacing, and every retry is counted in
// Metrics.Retries and QueryStats.Retries.
func (db *DB) SetRetryPolicy(rp *RetryPolicy) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.pool.Disk().SetRetryPolicy(rp)
	db.table.Disk().SetRetryPolicy(rp)
}

// SetDegradedReads toggles degraded-read mode at runtime (see
// WithDegradedReads): queries skip quarantined pages, reporting them in
// QueryStats.SkippedPages, instead of failing. The flag itself is
// atomic (queries read it lock-free); the writer lock keeps the Options
// mirror consistent for observers.
func (db *DB) SetDegradedReads(on bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.opts.DegradedReads = on
	db.degraded.Store(on)
}

// WALSize returns the current write-ahead log size in bytes, or 0 with
// no WAL attached (a growth signal for when to Checkpoint).
func (db *DB) WALSize() int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.wal == nil {
		return 0
	}
	return db.wal.Size()
}
