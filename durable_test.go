package segdb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"segdb/internal/seg"
	"segdb/internal/store"
)

// windowIDs (sorted window-query IDs) is shared with bulk_equiv_test.go.

func sameIDs(a, b []SegmentID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestWALRecoverRoundTrip exercises the happy path for every kind: open
// durable, mutate, "crash" (drop the DB object), recover from the files
// alone, and require an identical database.
func TestWALRecoverRoundTrip(t *testing.T) {
	segs := crashSegments(80, 11)
	for _, kind := range crashKinds {
		t.Run(kind.String(), func(t *testing.T) {
			wfs := NewMemWALFS()
			db, err := Open(kind, WithWALFS(wfs))
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			for _, s := range segs {
				if _, err := db.Add(s); err != nil {
					t.Fatalf("Add: %v", err)
				}
			}
			if err := db.Delete(3); err != nil {
				t.Fatalf("Delete: %v", err)
			}
			want := windowIDs(t, db, World())
			// The DB object is simply dropped: everything Recover needs must
			// already be durable in wfs.
			db2, rep, err := RecoverFS(wfs)
			if err != nil {
				t.Fatalf("RecoverFS: %v", err)
			}
			if db2.Kind() != kind {
				t.Errorf("recovered kind %v, want %v", db2.Kind(), kind)
			}
			if db2.Len() != len(segs) {
				t.Errorf("recovered %d segments, want %d", db2.Len(), len(segs))
			}
			if rep.Transactions != len(segs)+1 {
				t.Errorf("report: %d transactions, want %d", rep.Transactions, len(segs)+1)
			}
			if rep.Seq != uint64(len(segs)+1) {
				t.Errorf("report: seq %d, want %d", rep.Seq, len(segs)+1)
			}
			if rep.TornTail {
				t.Error("clean shutdown reported a torn tail")
			}
			if r := db2.CheckIntegrity(); !r.Healthy() {
				t.Fatalf("recovered db unhealthy: %v", r.Err())
			}
			if got := windowIDs(t, db2, World()); !sameIDs(got, want) {
				t.Errorf("recovered window: %d ids, want %d", len(got), len(want))
			}
			// The recovered database is durable again: mutate and re-recover.
			if _, err := db2.Add(Seg(1, 1, 2, 2)); err != nil {
				t.Fatalf("Add after recovery: %v", err)
			}
			db3, _, err := RecoverFS(wfs)
			if err != nil {
				t.Fatalf("second RecoverFS: %v", err)
			}
			if db3.Len() != len(segs)+1 {
				t.Errorf("second recovery has %d segments, want %d", db3.Len(), len(segs)+1)
			}
		})
	}
}

func TestOpenRefusesExistingCheckpoint(t *testing.T) {
	wfs := NewMemWALFS()
	if _, err := Open(UniformGrid, WithWALFS(wfs)); err != nil {
		t.Fatal(err)
	}
	_, err := Open(UniformGrid, WithWALFS(wfs))
	if err == nil || !strings.Contains(err.Error(), "Recover") {
		t.Fatalf("second Open = %v, want refusal pointing at Recover", err)
	}
}

func TestRecoverWithoutCheckpoint(t *testing.T) {
	if _, _, err := RecoverFS(NewMemWALFS()); err == nil {
		t.Fatal("recovery of an empty WALFS succeeded")
	}
}

func TestCheckpointTruncatesWAL(t *testing.T) {
	wfs := NewMemWALFS()
	db, err := Open(PMRQuadtree, WithWALFS(wfs))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range crashSegments(60, 12) {
		if _, err := db.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	grown := db.WALSize()
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if after := db.WALSize(); after >= grown {
		t.Errorf("WAL not truncated: %d -> %d bytes", grown, after)
	}
	// More mutations after the checkpoint land in the new epoch.
	if _, err := db.Add(Seg(5, 5, 6, 6)); err != nil {
		t.Fatal(err)
	}
	db2, rep, err := RecoverFS(wfs)
	if err != nil {
		t.Fatalf("RecoverFS: %v", err)
	}
	if db2.Len() != 61 {
		t.Errorf("recovered %d segments, want 61", db2.Len())
	}
	if rep.Transactions != 1 {
		t.Errorf("replayed %d transactions, want 1 (the post-checkpoint Add)", rep.Transactions)
	}
	if r := db2.CheckIntegrity(); !r.Healthy() {
		t.Fatalf("unhealthy after checkpoint+recover: %v", r.Err())
	}
}

// TestStaleWALIgnoredAfterCheckpoint pins the epoch filter: a WAL left
// over from before a checkpoint (the crash window between the rename
// and the log truncation) must not replay onto the newer image.
func TestStaleWALIgnoredAfterCheckpoint(t *testing.T) {
	wfs := NewMemWALFS()
	db, err := Open(RStarTree, WithWALFS(wfs))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range crashSegments(30, 13) {
		if _, err := db.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	preWAL, err := wfs.ReadFile("wal.log")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Restore the pre-checkpoint log, as a crash between the checkpoint
	// rename and the truncation would leave it.
	f, err := wfs.Create("wal.log")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(preWAL); err != nil {
		t.Fatal(err)
	}
	db2, rep, err := RecoverFS(wfs)
	if err != nil {
		t.Fatalf("RecoverFS: %v", err)
	}
	if rep.Transactions != 0 {
		t.Errorf("stale log replayed %d transactions, want 0", rep.Transactions)
	}
	if db2.Len() != 30 {
		t.Errorf("recovered %d segments, want 30", db2.Len())
	}
	if r := db2.CheckIntegrity(); !r.Healthy() {
		t.Fatalf("unhealthy: %v", r.Err())
	}
}

// TestAddBatchDurable pins the bulk path: AddBatch on an empty durable
// database replaces the index disk, so it must cut a full checkpoint,
// and recovery must reproduce it.
func TestAddBatchDurable(t *testing.T) {
	segs := crashSegments(200, 14)
	for _, kind := range crashKinds {
		t.Run(kind.String(), func(t *testing.T) {
			wfs := NewMemWALFS()
			db, err := Open(kind, WithWALFS(wfs))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := db.AddBatch(segs); err != nil {
				t.Fatalf("AddBatch: %v", err)
			}
			// Incremental adds after the bulk build share the same log.
			if _, err := db.Add(Seg(10, 10, 20, 20)); err != nil {
				t.Fatal(err)
			}
			want := windowIDs(t, db, World())
			db2, _, err := RecoverFS(wfs)
			if err != nil {
				t.Fatalf("RecoverFS: %v", err)
			}
			if r := db2.CheckIntegrity(); !r.Healthy() {
				t.Fatalf("unhealthy: %v", r.Err())
			}
			if got := windowIDs(t, db2, World()); !sameIDs(got, want) {
				t.Errorf("recovered window: %d ids, want %d", len(got), len(want))
			}
		})
	}
}

// TestRetryWorkloadCompletes is the ISSUE's retry acceptance: a workload
// under nonzero read and write fault probabilities completes with zero
// user-visible errors, and the absorbed faults show up as retry counts
// in Metrics and QueryStats.
func TestRetryWorkloadCompletes(t *testing.T) {
	fp := NewFaultPolicy(FaultConfig{Seed: 21, ReadErrorProb: 0.25, WriteErrorProb: 0.25})
	// A tiny pool plus periodic cache drops forces real disk traffic, so
	// the probabilities bite.
	db, err := Open(RPlusTree,
		WithFaultPolicy(fp),
		WithPoolPages(8),
		WithRetryPolicy(&RetryPolicy{MaxAttempts: 64}))
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range crashSegments(300, 22) {
		if _, err := db.Add(s); err != nil {
			t.Fatalf("Add under transient faults: %v", err)
		}
		if i%50 == 49 {
			if err := db.DropCaches(); err != nil {
				t.Fatalf("DropCaches under transient faults: %v", err)
			}
		}
	}
	var queryRetries uint64
	for i := 0; i < 20; i++ {
		if err := db.DropCaches(); err != nil {
			t.Fatalf("DropCaches under transient faults: %v", err)
		}
		st, err := db.WindowCtx(t.Context(), RectOf(int32(i*100), 0, int32(i*100+2000), 5000), func(SegmentID, Segment) bool { return true })
		if err != nil {
			t.Fatalf("window %d under transient faults: %v", i, err)
		}
		queryRetries += st.Retries
	}
	m := db.Metrics()
	if m.Retries == 0 {
		t.Error("Metrics.Retries = 0 under injected faults")
	}
	if fp.Injected() == 0 {
		t.Error("fault policy injected nothing; test proves nothing")
	}
	if queryRetries == 0 {
		t.Error("no query observed a retry in its QueryStats")
	}
	if r := db.CheckIntegrity(); !r.Healthy() {
		t.Fatalf("unhealthy after retried workload: %v", r.Err())
	}
}

// TestDegradedReadsAndScrub is the ISSUE's degraded-mode acceptance: a
// corrupted page yields partial results with SkippedPages populated
// (never a panic or silent wrong answer), and Scrub repairs it from the
// checkpoint + WAL.
func TestDegradedReadsAndScrub(t *testing.T) {
	for _, kind := range crashKinds {
		t.Run(kind.String(), func(t *testing.T) {
			wfs := NewMemWALFS()
			db, err := Open(kind, WithWALFS(wfs), WithDegradedReads(true))
			if err != nil {
				t.Fatal(err)
			}
			segs := crashSegments(150, 31)
			for _, s := range segs {
				if _, err := db.Add(s); err != nil {
					t.Fatal(err)
				}
			}
			want := windowIDs(t, db, World())
			if len(want) != len(segs) {
				t.Fatalf("baseline window returned %d ids", len(want))
			}
			// Push every page to disk, then silently corrupt one in-use
			// table page and one index page (bit flips under the CRC).
			if err := db.DropCaches(); err != nil {
				t.Fatal(err)
			}
			if err := db.table.Disk().CorruptPage(1, 77); err != nil {
				t.Fatal(err)
			}
			if err := db.pool.Disk().CorruptPage(0, 99); err != nil {
				t.Fatal(err)
			}
			var got []SegmentID
			st, err := db.WindowCtx(t.Context(), World(), func(id SegmentID, _ Segment) bool {
				got = append(got, id)
				return true
			})
			if err != nil {
				t.Fatalf("degraded window failed instead of degrading: %v", err)
			}
			if st.SkippedPages == 0 {
				t.Error("degraded query reported no skipped pages")
			}
			if len(got) >= len(want) {
				t.Errorf("degraded window returned %d ids over corrupt pages, baseline %d", len(got), len(want))
			}
			ix, tab := db.Quarantined()
			if len(ix)+len(tab) == 0 {
				t.Fatal("no pages quarantined after degraded query")
			}
			rep, err := db.Scrub()
			if err != nil {
				t.Fatalf("Scrub: %v", err)
			}
			if rep.Clean() {
				t.Fatal("scrub found nothing despite corruption")
			}
			if rep.Repaired == 0 || rep.Unrepairable != 0 {
				t.Fatalf("scrub repaired=%d unrepairable=%d, want everything repaired", rep.Repaired, rep.Unrepairable)
			}
			if r := db.CheckIntegrity(); !r.Healthy() {
				t.Fatalf("unhealthy after scrub: %v", r.Err())
			}
			if after := windowIDs(t, db, World()); !sameIDs(after, want) {
				t.Errorf("post-scrub window: %d ids, want %d", len(after), len(want))
			}
			ix, tab = db.Quarantined()
			if len(ix)+len(tab) != 0 {
				t.Errorf("quarantine not cleared after scrub: %v / %v", ix, tab)
			}
		})
	}
}

// TestDegradedOffFailsLoudly pins the inverse: without degraded mode a
// corrupt page is an error, not a silently smaller answer.
func TestDegradedOffFailsLoudly(t *testing.T) {
	db, err := Open(RStarTree)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range crashSegments(150, 32) {
		if _, err := db.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.DropCaches(); err != nil {
		t.Fatal(err)
	}
	if err := db.table.Disk().CorruptPage(1, 5); err != nil {
		t.Fatal(err)
	}
	err = db.Window(World(), func(SegmentID, Segment) bool { return true })
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("window over corruption = %v, want ErrChecksum", err)
	}
}

// TestScrubRequiresWAL pins that Scrub without a log is a typed error.
func TestScrubRequiresWAL(t *testing.T) {
	db, err := Open(UniformGrid)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Scrub(); !errors.Is(err, ErrNoWAL) {
		t.Errorf("Scrub = %v, want ErrNoWAL", err)
	}
	if err := db.Checkpoint(); !errors.Is(err, ErrNoWAL) {
		t.Errorf("Checkpoint = %v, want ErrNoWAL", err)
	}
}

// TestWALOnRealFiles exercises the os-backed WALFS end to end: WithWAL
// writes a checkpoint and log into a real directory, and Recover reopens
// the database from those files alone.
func TestWALOnRealFiles(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(KDBTree, WithWAL(dir))
	if err != nil {
		t.Fatalf("Open(WithWAL): %v", err)
	}
	segs := crashSegments(40, 41)
	for _, s := range segs {
		if _, err := db.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	want := windowIDs(t, db, World())
	db2, rep, err := Recover(dir)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rep.Transactions != len(segs) {
		t.Errorf("replayed %d transactions, want %d", rep.Transactions, len(segs))
	}
	if r := db2.CheckIntegrity(); !r.Healthy() {
		t.Fatalf("unhealthy: %v", r.Err())
	}
	if got := windowIDs(t, db2, World()); !sameIDs(got, want) {
		t.Errorf("recovered window: %d ids, want %d", len(got), len(want))
	}
}

// lostLogFS is a WALFS that fails the next Create of the log file once
// armed: a checkpoint whose rename landed but whose new log could not be
// opened.
type lostLogFS struct {
	*MemWALFS
	failNext bool
}

func (f *lostLogFS) Create(name string) (store.WALFile, error) {
	if name == walFileName && f.failNext {
		f.failNext = false
		return nil, errors.New("log create refused")
	}
	return f.MemWALFS.Create(name)
}

// TestWriteAfterLostLogIsDurableOrFails pins the owed-checkpoint rule: a
// checkpoint that could not open its new log leaves the database owing
// one, so the next write must cut it (or fail) rather than return nil
// with nothing logged.
func TestWriteAfterLostLogIsDurableOrFails(t *testing.T) {
	for _, staged := range []bool{false, true} {
		t.Run(fmt.Sprintf("staged=%v", staged), func(t *testing.T) {
			wfs := &lostLogFS{MemWALFS: NewMemWALFS()}
			opts := []Option{WithWALFS(wfs)}
			if staged {
				opts = append(opts, WithStagedIngest(), WithCompactThreshold(-1))
			}
			db, err := Open(RStarTree, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := db.Add(Seg(10, 10, 20, 20)); err != nil {
				t.Fatal(err)
			}
			wfs.failNext = true
			if err := db.Checkpoint(); err == nil {
				t.Fatal("Checkpoint succeeded although its log could not be created")
			}
			if _, err := db.Add(Seg(30, 30, 40, 40)); err != nil {
				t.Fatalf("Add after the lost log: %v (the owed checkpoint should have been cut)", err)
			}
			rec, _, err := RecoverFS(wfs.MemWALFS)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := rec.Len(), db.Len(); got != want {
				t.Fatalf("recovered %d segments, live database holds %d: an acknowledged Add was lost", got, want)
			}
		})
	}
}

// TestFailedStagedAddInvisibleAndNotDurable pins the failed-write
// contract for staged mode: a crash on the write of an Add's op record
// makes the Add fail, and the segment is visible neither now nor after
// recovery.
func TestFailedStagedAddInvisibleAndNotDurable(t *testing.T) {
	wfs := NewMemWALFS()
	db, err := Open(RStarTree, WithWALFS(wfs), WithStagedIngest(), WithCompactThreshold(-1))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range crashSegments(20, 5) {
		if _, err := db.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	want := windowIDs(t, db, World())
	wfs.SetCrashAfterWrites(1, 9) // the op record's Write
	if _, err := db.Add(Seg(100, 100, 200, 200)); !errors.Is(err, ErrWALCrash) {
		t.Fatalf("Add during the crash = %v, want ErrWALCrash", err)
	}
	if got := windowIDs(t, db, World()); !sameIDs(got, want) {
		t.Fatalf("failed Add is visible: window has %d ids, want %d", len(got), len(want))
	}
	wfs.Reboot()
	rec, _, err := RecoverFS(wfs, WithStagedIngest())
	if err != nil {
		t.Fatal(err)
	}
	if got := windowIDs(t, rec, World()); !sameIDs(got, want) {
		t.Fatalf("failed Add is durable: recovered window has %d ids, want %d", len(got), len(want))
	}
}

// TestScrubRefusesWhileCheckpointOwed: a Delete that misses is a
// validation error and leaves the log open, but after a write failed
// past validation the log is behind memory, so Scrub must not rebuild
// pages from it.
func TestScrubRefusesWhileCheckpointOwed(t *testing.T) {
	wfs := NewMemWALFS()
	db, err := Open(RStarTree, WithWALFS(wfs))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range crashSegments(50, 8) {
		if _, err := db.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Delete(3); err != nil {
		t.Fatal(err)
	}
	for _, id := range []SegmentID{3, 9999} {
		if err := db.Delete(id); !errors.Is(err, seg.ErrNotIndexed) {
			t.Fatalf("Delete(%d) = %v, want ErrNotIndexed", id, err)
		}
		if db.wal == nil {
			t.Fatalf("Delete(%d) that missed closed the log", id)
		}
	}
	wfs.SetCrashAfterWrites(1, 4) // the next Add's op record
	if _, err := db.Add(Seg(100, 100, 200, 200)); !errors.Is(err, ErrWALCrash) {
		t.Fatalf("Add during the crash = %v, want ErrWALCrash", err)
	}
	if err := db.DropCaches(); err != nil {
		t.Fatal(err)
	}
	if err := db.table.Disk().CorruptPage(0, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Scrub(); err == nil || !strings.Contains(err.Error(), "owed") {
		t.Fatalf("Scrub while a checkpoint is owed = %v, want a refusal", err)
	}
}

// TestNoCheckpointOverDamagedDisk: an Add that reads a corrupt index
// page fails and owes a checkpoint; the next write must not cut that
// checkpoint over the bad page, so the checkpoint and log still recover
// the last acknowledged state.
func TestNoCheckpointOverDamagedDisk(t *testing.T) {
	for _, kind := range crashKinds {
		t.Run(kind.String(), func(t *testing.T) {
			wfs := NewMemWALFS()
			db, err := Open(kind, WithWALFS(wfs))
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range crashSegments(150, 12) {
				if _, err := db.Add(s); err != nil {
					t.Fatal(err)
				}
			}
			want := windowIDs(t, db, World())
			if err := db.DropCaches(); err != nil {
				t.Fatal(err)
			}
			for id := range db.pool.Disk().PageCount() {
				if err := db.pool.Disk().CorruptPage(PageID(id), 99); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := db.Add(Seg(100, 100, 200, 200)); !errors.Is(err, ErrChecksum) {
				t.Fatalf("Add over a corrupt index = %v, want ErrChecksum", err)
			}
			if _, err := db.Add(Seg(300, 300, 400, 400)); !errors.Is(err, ErrChecksum) {
				t.Fatalf("Add owing a checkpoint over a corrupt index = %v, want the refusal", err)
			}
			rec, _, err := RecoverFS(wfs)
			if err != nil {
				t.Fatalf("RecoverFS after the refused checkpoint: %v", err)
			}
			if got := windowIDs(t, rec, World()); !sameIDs(got, want) {
				t.Fatalf("recovered window has %d ids, want %d", len(got), len(want))
			}
		})
	}
}

// TestStagedLoadScrubs: a staged Load reaches the index only through
// compaction, so Scrub's staged replay rebuilds the live index pages.
func TestStagedLoadScrubs(t *testing.T) {
	db, err := Open(RStarTree, WithWALFS(NewMemWALFS()), WithStagedIngest(), WithCompactThreshold(-1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Load(&MapData{Segments: crashSegments(150, 13)}); err != nil {
		t.Fatal(err)
	}
	for _, s := range crashSegments(20, 14) {
		if _, err := db.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	want := windowIDs(t, db, World())
	if err := db.DropCaches(); err != nil {
		t.Fatal(err)
	}
	if err := db.pool.Disk().CorruptPage(0, 99); err != nil {
		t.Fatal(err)
	}
	rep, err := db.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Repaired != 1 || rep.Unrepairable != 0 {
		t.Fatalf("scrub repaired=%d unrepairable=%d, want the one page repaired", rep.Repaired, rep.Unrepairable)
	}
	if r := db.CheckIntegrity(); !r.Healthy() {
		t.Fatalf("unhealthy after scrub: %v", r.Err())
	}
	if got := windowIDs(t, db, World()); !sameIDs(got, want) {
		t.Fatalf("post-scrub window has %d ids, want %d", len(got), len(want))
	}
}

// replayOps is TestReplayReproducesImage's workload: Charles segments
// added one at a time, every seventh add followed by a delete of an
// earlier one.
func replayOps(t *testing.T, n int) []crashOp {
	t.Helper()
	var ops []crashOp
	for i, s := range bulkSample(t, n) {
		ops = append(ops, crashOp{seg: s})
		if i%7 == 6 {
			ops = append(ops, crashOp{del: true, id: SegmentID(i / 2)})
		}
	}
	return ops
}

// saveImage returns db's Save image.
func saveImage(t *testing.T, db *DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// opRecordStart returns the log offset of the i-th op record (0-based),
// walking the [length][CRC][payload] frames after the 8-byte magic.
func opRecordStart(t *testing.T, log []byte, i int) int {
	t.Helper()
	for off := 8; off+8 < len(log); off += 8 + int(binary.LittleEndian.Uint32(log[off:])) {
		if log[off+8] == 3 { // op record
			if i == 0 {
				return off
			}
			i--
		}
	}
	t.Fatalf("log holds fewer op records than asked for")
	return 0
}

// TestReplayReproducesImage is the logical log's gate: a checkpoint plus
// the re-executed ops reproduce the live image byte for byte, for every
// kind and page format; and a log torn inside op j's record recovers the
// image of an uninterrupted run of the ops before j.
func TestReplayReproducesImage(t *testing.T) {
	ops := replayOps(t, 3000)
	k := len(ops) / 2 // checkpoint after op k
	j := k + (len(ops)-k)/2
	for _, kind := range crashKinds {
		for _, level := range []int{0, 1} {
			t.Run(fmt.Sprintf("%v/compression=%d", kind, level), func(t *testing.T) {
				wfs := NewMemWALFS()
				db, err := Open(kind, WithWALFS(wfs), WithPageCompression(level))
				if err != nil {
					t.Fatal(err)
				}
				for i, op := range ops {
					if err := op.apply(db); err != nil {
						t.Fatalf("op %d: %v", i, err)
					}
					if i == k-1 {
						if err := db.Checkpoint(); err != nil {
							t.Fatal(err)
						}
					}
				}
				files := wfs.Snapshot()
				rec, rep, err := RecoverFS(wfs)
				if err != nil {
					t.Fatal(err)
				}
				if rep.OpsReplayed != len(ops)-k {
					t.Fatalf("replayed %d ops, want %d", rep.OpsReplayed, len(ops)-k)
				}
				if !bytes.Equal(saveImage(t, rec), saveImage(t, db)) {
					t.Fatal("recovered image differs from the live one")
				}

				torn := NewMemWALFS()
				for name, data := range files {
					if name == walFileName {
						data = data[:opRecordStart(t, data, j-k)+13]
					}
					f, err := torn.Create(name)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := f.Write(data); err != nil {
						t.Fatal(err)
					}
				}
				rec, rep, err = RecoverFS(torn)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.TornTail || rep.OpsReplayed != j-k {
					t.Fatalf("torn log: torn=%v, %d ops replayed, want true and %d", rep.TornTail, rep.OpsReplayed, j-k)
				}
				ref, err := Open(kind, WithPageCompression(level))
				if err != nil {
					t.Fatal(err)
				}
				for _, op := range ops[:j] {
					if err := op.apply(ref); err != nil {
						t.Fatal(err)
					}
				}
				if !bytes.Equal(saveImage(t, rec), saveImage(t, ref)) {
					t.Fatalf("image recovered from a log torn inside op %d differs from a run of ops 0..%d", j, j-1)
				}
			})
		}
	}
}

// TestRecoverRefusesPageImageLog pins the format change: a log in the
// retired page-image format is refused by name, not misread.
func TestRecoverRefusesPageImageLog(t *testing.T) {
	wfs := NewMemWALFS()
	db, err := Open(UniformGrid, WithWALFS(wfs))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Add(Seg(1, 1, 5, 5)); err != nil {
		t.Fatal(err)
	}
	log, err := wfs.ReadFile(walFileName)
	if err != nil {
		t.Fatal(err)
	}
	f, err := wfs.Create(walFileName)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(append([]byte("SDBWAL01"), log[8:]...)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := RecoverFS(wfs); err == nil || !strings.Contains(err.Error(), "SDBWAL01") {
		t.Fatalf("RecoverFS over a v1 log = %v, want a refusal naming SDBWAL01", err)
	}
}
