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
//   - wal.log — the write-ahead log, which records operations, not
//     pages. Every Add and Delete appends one op record (an add's
//     segment ID and endpoints, or a delete's ID) and a CRC-framed
//     commit record, synced before the write returns; Load logs one op
//     per segment under one commit. Recovery loads the checkpoint and
//     re-executes the committed ops, which reproduces the pre-crash
//     image because insertion is deterministic. Replay is prefix-valid:
//     it stops at the first torn or corrupt frame. AddBatch and staged
//     compaction replace the index wholesale and cut a checkpoint
//     instead.
//
// Commit records are stamped with an epoch so a log that was not yet
// truncated when the process died cannot replay stale ops onto a newer
// checkpoint: a checkpoint at epoch E is followed by commits at epoch
// E+1, and recovery replays only commits with epoch > E.
//
// The log describes memory only while it is open. A checkpoint closes
// the old log once both disks are flushed and verified, and a write
// that fails after validation closes it too, because its partial effect
// on memory is in no record. So with a log directory but no open log, a
// checkpoint is owed, and every write cuts it before applying its own
// op. No checkpoint is cut over a page that fails its checksum.
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
// Recover, not an overwrite) and cuts the initial checkpoint + empty log.
func (db *DB) initWAL(wfs store.WALFS) error {
	if _, err := wfs.ReadFile(ckptFileName); err == nil {
		return fmt.Errorf("segdb: WAL directory already holds a checkpoint; use Recover to reopen it (or remove %s to start fresh)", ckptFileName)
	} else if !errors.Is(err, iofs.ErrNotExist) {
		return err
	}
	db.walfs = wfs
	db.walEpoch = 0
	db.walSeq = 0
	return db.checkpointLocked()
}

// settleLocked is the first step of every write: if a checkpoint is
// owed (a log directory but no open log), it cuts one, and the write
// fails with its error if it cannot. Callers hold the writer lock.
func (db *DB) settleLocked() error {
	if db.walfs == nil || db.wal != nil {
		return nil
	}
	return db.cutCheckpointLocked()
}

// logLocked makes applied operations durable: one op record each, then
// a synced commit record carrying the table length replay checks
// against. A failure closes the log (see failLocked). Without a WAL it
// is a no-op. Callers hold the writer lock and ran settleLocked first,
// so a WAL's log is open.
func (db *DB) logLocked(ops ...store.WALStagedOp) error {
	if db.walfs == nil {
		return nil
	}
	db.walSeq++
	for _, op := range ops {
		if err := db.wal.AppendStaged(op); err != nil {
			return db.failLocked(err)
		}
	}
	return db.failLocked(db.wal.AppendCommit(store.WALCommit{
		Epoch:      db.walEpoch,
		Seq:        db.walSeq,
		TableCount: uint32(db.table.Len()),
	}))
}

// failLocked closes the log when err is a write failure past
// validation: memory may hold part of the failed op, which no record
// describes, and the log may end in an unsealed record. The next write
// then owes a checkpoint. It returns err.
func (db *DB) failLocked(err error) error {
	if err != nil && db.wal != nil {
		db.wal.Close()
		db.wal = nil
	}
	return err
}

// addOp and delOp build the op records of an add and a delete.
func addOp(id SegmentID, s Segment) store.WALStagedOp {
	return store.WALStagedOp{ID: uint32(id), Coords: [4]int32{s.P1.X, s.P1.Y, s.P2.X, s.P2.Y}}
}

func delOp(id SegmentID) store.WALStagedOp { return store.WALStagedOp{Del: true, ID: uint32(id)} }

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
	return db.cutCheckpointLocked()
}

// cutCheckpointLocked is Checkpoint's body: in staged mode a non-empty
// staging tier is compacted first (compaction cuts the checkpoint).
func (db *DB) cutCheckpointLocked() error {
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
// leftover log). Both disks are flushed and verified first, with the
// log still open: a page failing its checksum would make the image
// unloadable, so the checkpoint is refused. Only then is the old log
// closed, so a checkpoint that fails later leaves one owed.
func (db *DB) checkpointLocked() error {
	if err := db.table.Flush(); err != nil {
		return err
	}
	if err := db.pool.Flush(); err != nil {
		return err
	}
	for _, d := range []*store.Disk{db.pool.Disk(), db.table.Disk()} {
		if err := d.VerifyChecksums(); err != nil {
			return fmt.Errorf("segdb: checkpoint refused over a damaged disk (Scrub repairs it; with a checkpoint owed, Recover reopens the last durable state): %w", err)
		}
	}
	if db.wal != nil {
		db.wal.Close()
		db.wal = nil
	}
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
	w, err := store.CreateWAL(db.walfs, walFileName)
	if err != nil {
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
	// Transactions counts the committed WAL transactions rolled forward
	// on top of the checkpoint, and OpsReplayed the operations (adds and
	// deletes) they held.
	Transactions int
	OpsReplayed  int
	// TornTail reports that the log ended in a discarded tail — a
	// truncated or CRC-failed frame, or op records never sealed by a
	// commit — which is exactly what a mid-write crash leaves.
	TornTail bool
	// Seq is the mutation count of the recovered state.
	Seq uint64
}

// Recover reopens a crashed (or cleanly closed) durable database from
// its WAL directory: the latest checkpoint is loaded and every
// committed WAL operation after it is re-executed. The recovered
// database is durable again — a fresh checkpoint is cut and the log
// truncated before Recover returns. Options contribute runtime settings
// only (retry policy, degraded reads, fault policy, tracer, staged
// ingest); the structural configuration comes from the checkpoint image.
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
	o := resolveOptions(opts)
	st, err := replayDurableState(wfs, o.StagedIngest)
	if err != nil {
		return nil, nil, err
	}
	db := st.db
	db.attachRuntime(o)
	db.walfs = wfs
	db.walEpoch = st.lastEpoch
	db.walSeq = st.seq
	if o.StagedIngest && len(st.ops) > 0 {
		// The log's ops are the previous run's staging tier; their adds are
		// back in the table. Fold them into the index by rebuilding it over
		// the final live set ("recovery replays the memtable").
		if err := db.foldStagedRecovery(st.ops); err != nil {
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
	db.foldWrite() // the replay's comparisons
	return db, &RecoveryReport{
		CheckpointEpoch: st.epoch,
		CheckpointSeq:   st.ckptSeq,
		Transactions:    st.txns,
		OpsReplayed:     len(st.ops),
		TornTail:        st.torn,
		Seq:             st.seq,
	}, nil
}

// foldStagedRecovery applies replayed staged operations to the
// recovered base index: the live set after the operations is the base's
// live segments plus staged adds minus every delete, and the index is
// bulk-rebuilt over it.
func (db *DB) foldStagedRecovery(ops []store.WALStagedOp) error {
	base, err := db.collectLiveIDs(db.index, &db.wop)
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
// the checkpoint image with every committed op after it replayed.
type replayedState struct {
	db *DB

	// ops is every committed op, in log order. In place they are already
	// applied to db; staged, only their adds are (to the table), and the
	// caller folds them into the index.
	ops []store.WALStagedOp

	epoch     uint64 // checkpoint epoch
	ckptSeq   uint64 // checkpoint mutation count
	lastEpoch uint64 // epoch of the newest replayed commit (= epoch if none)
	seq       uint64 // mutation count after replay
	txns      int
	torn      bool
}

// replayDurableState loads the checkpoint into a DB with no runtime
// options attached (so injected faults cannot touch it) and replays the
// log's committed ops over it, in place or staged. Shared by Recover,
// which attaches the runtime options to the result, and Scrub, which
// uses it as the known-good source for repairing bad pages. A replay
// that diverges from the log — an add given another ID than it was
// logged with, or a table length other than a commit's — is an error.
func replayDurableState(wfs store.WALFS, staged bool) (*replayedState, error) {
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
	st.db, err = Load(bytes.NewReader(ckpt[ckptPreludeSize:]))
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
	for _, txn := range txns {
		st.txns++
		for _, op := range txn.Ops {
			if err := st.db.replayOp(op, staged); err != nil {
				return nil, fmt.Errorf("segdb: replaying %s transaction %d: %w", walFileName, st.txns, err)
			}
		}
		if n := st.db.table.Len(); n != int(txn.Commit.TableCount) {
			return nil, fmt.Errorf("segdb: replaying %s transaction %d: table holds %d segments, its commit says %d", walFileName, st.txns, n, txn.Commit.TableCount)
		}
		st.ops = append(st.ops, txn.Ops...)
		st.lastEpoch = txn.Commit.Epoch
		st.seq = txn.Commit.Seq
	}
	return st, nil
}

// replayOp re-executes one logged op: in place through the write path's
// own apply; staged, an add is re-appended to the table and a delete is
// left to the caller's fold. An add must get back the ID it was logged
// with.
func (db *DB) replayOp(op store.WALStagedOp, staged bool) error {
	if op.Del {
		if staged {
			return nil
		}
		return db.index.Delete(seg.ID(op.ID), &db.wop)
	}
	s := Seg(op.Coords[0], op.Coords[1], op.Coords[2], op.Coords[3])
	if err := checkSegments(s); err != nil {
		return err
	}
	var id SegmentID
	var err error
	if staged {
		id, err = db.table.Append(s)
	} else {
		id, err = db.addLocked(s)
	}
	if err == nil && id != SegmentID(op.ID) {
		err = fmt.Errorf("add of %v re-executed as segment %d, logged as %d", s, id, op.ID)
	}
	return err
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
// repairs each corrupt or quarantined page from the durable state,
// clearing its quarantine so degraded-mode queries see the page again.
// The known-good shadow is the last checkpoint with the log replayed in
// the live database's mode, flushed: because every write is logged
// before it returns, and replay is deterministic, a shadow page is
// byte-identical to what the query path expects. While a checkpoint is
// owed the log is behind memory, so Scrub refuses to repair; as no
// checkpoint is cut over a damaged page either, writes fail until
// Recover reopens the last durable state.
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
	if db.wal == nil {
		return r, errors.New("segdb: scrub: a failed write left the log behind memory (a checkpoint is owed), so the durable state cannot vouch for any page; Recover reopens that state")
	}
	st, err := replayDurableState(db.walfs, db.stagedMode())
	if err != nil {
		return r, err
	}
	shadow := st.db
	if err := shadow.table.Flush(); err != nil {
		return r, err
	}
	if err := shadow.pool.Flush(); err != nil {
		return r, err
	}
	if err := db.repairPages(db.pool, shadow.pool.Disk(), r.BadIndexPages, r); err != nil {
		return r, err
	}
	return r, db.repairPages(db.table.Pool(), shadow.table.Disk(), r.BadTablePages, r)
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
