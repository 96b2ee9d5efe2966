package segdb

import (
	"errors"
	"strings"
	"testing"

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

var _ = store.ErrInjectedFault // keep the import if assertions change

// walTxns parses the live log of a MemWALFS-backed database.
func walTxns(t *testing.T, wfs *MemWALFS) []*store.WALTxn {
	t.Helper()
	data, err := wfs.ReadFile(walFileName)
	if err != nil {
		t.Fatal(err)
	}
	txns, torn, err := store.ReadWAL(data, 0)
	if err != nil || torn {
		t.Fatalf("ReadWAL: torn=%v err=%v", torn, err)
	}
	return txns
}

// TestWALLogsPageOncePerChange pins the logged-bit invariant: a commit
// carries the pages changed since they were last logged, not every
// dirty frame of the pools, so a commit with nothing modified since the
// previous one appends no page record at all.
func TestWALLogsPageOncePerChange(t *testing.T) {
	wfs := NewMemWALFS()
	db, err := Open(RStarTree, WithWALFS(wfs))
	if err != nil {
		t.Fatal(err)
	}
	segs := crashSegments(300, 21)
	for _, s := range segs {
		if _, err := db.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	db.mu.Lock()
	err = db.walCommit()
	db.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	txns := walTxns(t, wfs)
	if len(txns) != len(segs)+1 {
		t.Fatalf("%d transactions, want %d", len(txns), len(segs)+1)
	}
	if n := len(txns[len(txns)-1].Pages); n != 0 {
		t.Errorf("a commit with nothing modified logged %d pages, want 0", n)
	}
	// Both 16-page pools stay dirty between checkpoints, so logging every
	// dirty frame would put ~20 pages in each late commit; an insert
	// changes a leaf, its ancestors and one table page.
	for i, txn := range txns[len(txns)-50 : len(txns)-1] {
		if n := len(txn.Pages); n == 0 || n > 8 {
			t.Errorf("late Add %d logged %d pages, want 1..8 (only what it changed)", i, n)
		}
	}
}

// TestWALRecoversPageLoggedOnceThenEvicted covers the case the logged
// bit must not lose: a page logged at commit N, untouched at commit
// N+1 (so not logged again), then evicted from the pool before a crash.
// Its only image is the one from commit N, and recovery must still
// reproduce the exact database.
func TestWALRecoversPageLoggedOnceThenEvicted(t *testing.T) {
	wfs := NewMemWALFS()
	db, err := Open(RStarTree, WithWALFS(wfs))
	if err != nil {
		t.Fatal(err)
	}
	segs := crashSegments(1500, 22) // ~60 index pages through a 16-page pool
	for _, s := range segs {
		if _, err := db.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	// Find an index page logged in one commit, absent from the next, and
	// no longer resident: the scenario, not just the workload, happened.
	txns := walTxns(t, wfs)
	logged := func(txn *store.WALTxn, id store.PageID) bool {
		for _, p := range txn.Pages {
			if p.Disk == store.WALDiskIndex && p.Page == id {
				return true
			}
		}
		return false
	}
	found := false
	for i := 0; i+1 < len(txns) && !found; i++ {
		for _, p := range txns[i].Pages {
			if p.Disk == store.WALDiskIndex && !logged(txns[i+1], p.Page) && !db.pool.Resident(p.Page) {
				found = true
				break
			}
		}
	}
	if !found {
		t.Fatal("workload never logged a page once, skipped it, and evicted it")
	}

	// Crash: drop the database without a checkpoint and recover from the
	// files alone.
	rec, rep, err := RecoverFS(wfs)
	if err != nil {
		t.Fatalf("RecoverFS: %v", err)
	}
	if rep.Transactions != len(segs) {
		t.Errorf("replayed %d transactions, want %d", rep.Transactions, len(segs))
	}
	if r := rec.CheckIntegrity(); !r.Healthy() {
		t.Fatalf("recovered db unhealthy: %v", r.Err())
	}
	model, err := Open(RStarTree)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range segs {
		if _, err := model.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := crashFingerprint(t, rec, segs), crashFingerprint(t, model, segs); got != want {
		t.Fatalf("recovered queries diverge from the model:\nrecovered:\n%s\nmodel:\n%s", got, want)
	}
}
