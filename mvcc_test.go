package segdb

import (
	"context"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"segdb/internal/geom"
)

// --- helpers ---------------------------------------------------------------

func mvccRandSeg(rng *rand.Rand) Segment {
	clamp := func(v int32) int32 {
		if v < 0 {
			return 0
		}
		if v >= WorldSize {
			return WorldSize - 1
		}
		return v
	}
	x1 := rng.Int31n(WorldSize)
	y1 := rng.Int31n(WorldSize)
	return Seg(x1, y1, clamp(x1+rng.Int31n(400)-200), clamp(y1+rng.Int31n(400)-200))
}

func mvccRandRect(rng *rand.Rand) Rect {
	return RectOf(rng.Int31n(WorldSize), rng.Int31n(WorldSize),
		rng.Int31n(WorldSize), rng.Int31n(WorldSize))
}

// distMultiset reduces a k-NN answer to its sorted distance multiset —
// the replay-stable signature when several segments tie at a distance.
func distMultiset(rs []NearestResult) []float64 {
	ds := make([]float64, len(rs))
	for i, r := range rs {
		ds[i] = r.DistSq
	}
	sort.Float64s(ds)
	return ds
}

func sameDistMultiset(a, b []float64) bool {
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

// --- staged-mode basics ----------------------------------------------------

func TestStagedBasics(t *testing.T) {
	db, err := Open(RStarTree, WithStagedIngest(), WithCompactThreshold(-1))
	if err != nil {
		t.Fatal(err)
	}
	id1, err := db.Add(Seg(10, 10, 20, 20))
	if err != nil {
		t.Fatal(err)
	}
	id2, err := db.Add(Seg(30, 30, 40, 40))
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != 2 {
		t.Fatalf("Len = %d, want 2", db.Len())
	}
	if s, err := db.Get(id1); err != nil || s != Seg(10, 10, 20, 20) {
		t.Fatalf("Get(%d) = %v, %v", id1, s, err)
	}
	if got := db.StagedSize(); got != 2 {
		t.Fatalf("StagedSize = %d, want 2 (both adds staged)", got)
	}
	if err := db.Delete(id2); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete(id2); err == nil {
		t.Fatal("double Delete succeeded")
	}
	if db.Len() != 1 {
		t.Fatalf("Len after delete = %d, want 1", db.Len())
	}
	if eid, _ := db.Epoch(); eid != 1 {
		t.Fatalf("epoch before compaction = %d, want 1", eid)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if eid, pins := db.Epoch(); eid != 2 || pins != 0 {
		t.Fatalf("epoch after compaction = %d (pins %d), want 2 with no pins", eid, pins)
	}
	if got := db.StagedSize(); got != 0 {
		t.Fatalf("StagedSize after compaction = %d, want 0", got)
	}
	got := windowIDs(t, db, World())
	if len(got) != 1 || got[0] != id1 {
		t.Fatalf("window after compaction = %v, want [%d]", got, id1)
	}
	m := db.Metrics()
	if m.StagedOps != 3 || m.Compactions != 1 {
		t.Fatalf("StagedOps=%d Compactions=%d, want 3 and 1", m.StagedOps, m.Compactions)
	}
	if db.LockedReads() != 0 {
		t.Fatalf("LockedReads = %d, want 0 in staged mode", db.LockedReads())
	}

	legacy, err := Open(RStarTree)
	if err != nil {
		t.Fatal(err)
	}
	if err := legacy.Compact(); err == nil {
		t.Fatal("Compact on a non-staged database succeeded, want ErrNotStaged")
	} else if ErrorCode(err) != CodeInvalid {
		t.Fatalf("Compact error code = %v, want CodeInvalid", ErrorCode(err))
	}
}

// TestStagedCompactEmpty compacts databases whose staging tier deleted
// everything — the zero-survivor bulk rebuild — for every kind.
func TestStagedCompactEmpty(t *testing.T) {
	for _, kind := range allKinds() {
		db, err := Open(kind, WithStagedIngest(), WithCompactThreshold(-1))
		if err != nil {
			t.Fatal(err)
		}
		var ids []SegmentID
		for i := 0; i < 10; i++ {
			id, err := db.Add(Seg(int32(i*10), 5, int32(i*10)+5, 9))
			if err != nil {
				t.Fatalf("%v: %v", kind, err)
			}
			ids = append(ids, id)
		}
		for _, id := range ids {
			if err := db.Delete(id); err != nil {
				t.Fatalf("%v: %v", kind, err)
			}
		}
		if err := db.Compact(); err != nil {
			t.Fatalf("%v: compacting an emptied database: %v", kind, err)
		}
		if db.Len() != 0 {
			t.Fatalf("%v: Len = %d after deleting everything", kind, db.Len())
		}
		if got := windowIDs(t, db, World()); len(got) != 0 {
			t.Fatalf("%v: window after empty compaction = %v", kind, got)
		}
	}
}

// --- property test: staged vs legacy shadow, all six kinds -----------------

// TestStagedPropertyInterleaved interleaves random Add/Delete/Compact
// with window, k-NN, incident, and self-overlay queries, comparing the
// staged database against a legacy shadow fed the identical mutations.
// Sequential replay equivalence at every interleaving point, for every
// index kind.
func TestStagedPropertyInterleaved(t *testing.T) {
	for _, kind := range allKinds() {
		rng := rand.New(rand.NewSource(int64(kind)*131 + 7))
		db, err := Open(kind, WithStagedIngest(), WithCompactThreshold(64))
		if err != nil {
			t.Fatal(err)
		}
		shadow, err := Open(kind)
		if err != nil {
			t.Fatal(err)
		}
		var live []SegmentID
		for step := 0; step < 300; step++ {
			switch r := rng.Intn(10); {
			case r < 4: // add
				s := mvccRandSeg(rng)
				id1, err1 := db.Add(s)
				id2, err2 := shadow.Add(s)
				if err1 != nil || err2 != nil || id1 != id2 {
					t.Fatalf("%v step %d: add mismatch: %v/%v %v/%v", kind, step, id1, err1, id2, err2)
				}
				live = append(live, id1)
			case r < 6 && len(live) > 0: // delete
				i := rng.Intn(len(live))
				id := live[i]
				live = append(live[:i], live[i+1:]...)
				if err := db.Delete(id); err != nil {
					t.Fatalf("%v step %d: staged delete %d: %v", kind, step, id, err)
				}
				if err := shadow.Delete(id); err != nil {
					t.Fatalf("%v step %d: shadow delete %d: %v", kind, step, id, err)
				}
			case r == 6: // explicit compaction
				if err := db.Compact(); err != nil {
					t.Fatalf("%v step %d: compact: %v", kind, step, err)
				}
			case r == 7: // window
				w := mvccRandRect(rng)
				got := windowIDs(t, db, w)
				want := windowIDs(t, shadow, w)
				if !slices.Equal(got, want) {
					t.Fatalf("%v step %d: window %v: staged %v, legacy %v", kind, step, w, got, want)
				}
			case r == 8 && len(live) > 0: // k-NN
				p := Pt(rng.Int31n(WorldSize), rng.Int31n(WorldSize))
				k := 1 + rng.Intn(8)
				got, _, err := db.NearestKAppendCtx(context.Background(), p, k, nil)
				if err != nil {
					t.Fatalf("%v step %d: %v", kind, step, err)
				}
				want, _, err := shadow.NearestKAppendCtx(context.Background(), p, k, nil)
				if err != nil {
					t.Fatalf("%v step %d: %v", kind, step, err)
				}
				if !sameDistMultiset(distMultiset(got), distMultiset(want)) {
					t.Fatalf("%v step %d: NearestK(%v, %d): staged %v, legacy %v",
						kind, step, p, k, distMultiset(got), distMultiset(want))
				}
			case r == 9: // self-overlay: identical intersecting pair sets
				type pair struct{ a, b SegmentID }
				collect := func(d *DB) map[pair]int {
					m := map[pair]int{}
					if _, err := d.OverlayCtx(context.Background(), d, func(a, b SegmentID, _, _ Segment) bool {
						m[pair{a, b}]++
						return true
					}); err != nil {
						t.Fatalf("%v step %d: overlay: %v", kind, step, err)
					}
					return m
				}
				got, want := collect(db), collect(shadow)
				if len(got) != len(want) {
					t.Fatalf("%v step %d: overlay pair count: staged %d, legacy %d", kind, step, len(got), len(want))
				}
				for p, n := range want {
					if got[p] != n {
						t.Fatalf("%v step %d: overlay pair %v: staged %d, legacy %d", kind, step, p, got[p], n)
					}
				}
			}
		}
		if db.LockedReads() != 0 {
			t.Fatalf("%v: LockedReads = %d after property run, want 0", kind, db.LockedReads())
		}
		if rep := db.CheckIntegrity(); !rep.Healthy() {
			t.Fatalf("%v: integrity after property run: %v", kind, rep.Err())
		}
	}
}

// --- acceptance stress: readers through an Add/Delete/Compact storm --------

// mvccOp is one recorded mutation; the op log index is the version that
// made it visible, so replaying log[:epoch] reconstructs the exact state
// any snapshot at that epoch observed.
type mvccOp struct {
	del bool
	id  SegmentID
	s   Segment
}

// replayLive folds an op-log prefix into the live segment map.
func replayLive(log []mvccOp) map[SegmentID]Segment {
	m := make(map[SegmentID]Segment, len(log))
	for _, op := range log {
		if op.del {
			delete(m, op.id)
		} else {
			m[op.id] = op.s
		}
	}
	return m
}

// TestStagedStressReplayEquivalence is the headline MVCC guarantee under
// the race detector, for every index kind: concurrent readers run
// window and k-NN queries through an Add/Delete/Compact storm, and every
// answer must equal a sequential replay of the mutation log truncated at
// the query's pinned epoch — while the query paths acquire zero reader
// locks.
func TestStagedStressReplayEquivalence(t *testing.T) {
	const (
		totalOps = 1200
		readers  = 3
	)
	for _, kind := range allKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			db, err := Open(kind, WithStagedIngest(), WithCompactThreshold(250))
			if err != nil {
				t.Fatal(err)
			}
			// Write-once op log: slot v-1 is filled before published
			// advances to v, so any reader observing published >= v may
			// read log[:v] without synchronization.
			log := make([]mvccOp, totalOps)
			var published atomic.Int64
			var queriesRun atomic.Int64

			var wg sync.WaitGroup
			done := make(chan struct{})
			for g := 0; g < readers; g++ {
				wg.Add(1)
				go func(gid int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(gid)*977 + 13))
					for {
						select {
						case <-done:
							return
						default:
						}
						w := mvccRandRect(rng)
						var got []SegmentID
						stats, err := db.WindowCtx(nil, w, func(id SegmentID, _ Segment) bool {
							got = append(got, id)
							return true
						})
						if err != nil {
							t.Errorf("%v: window: %v", kind, err)
							return
						}
						e := int64(stats.Epoch)
						for published.Load() < e {
							runtime.Gosched()
						}
						liveAt := replayLive(log[:e])
						var want []SegmentID
						for id, s := range liveAt {
							if w.IntersectsSegment(s) {
								want = append(want, id)
							}
						}
						slices.Sort(got)
						slices.Sort(want)
						if !slices.Equal(got, want) {
							t.Errorf("%v: window %v at epoch %d: got %v, replay says %v", kind, w, e, got, want)
							return
						}

						p := Pt(rng.Int31n(WorldSize), rng.Int31n(WorldSize))
						k := 1 + rng.Intn(5)
						res, stats, err := db.NearestKAppendCtx(nil, p, k, nil)
						if err != nil {
							t.Errorf("%v: nearestk: %v", kind, err)
							return
						}
						e = int64(stats.Epoch)
						for published.Load() < e {
							runtime.Gosched()
						}
						liveAt = replayLive(log[:e])
						dists := make([]float64, 0, len(liveAt))
						for _, s := range liveAt {
							dists = append(dists, geom.DistSqPointSegment(p, s))
						}
						sort.Float64s(dists)
						if len(dists) > k {
							dists = dists[:k]
						}
						if !sameDistMultiset(distMultiset(res), dists) {
							t.Errorf("%v: NearestK(%v,%d) at epoch %d: got %v, replay says %v",
								kind, p, k, e, distMultiset(res), dists)
							return
						}
						queriesRun.Add(1)
					}
				}(g)
			}

			rng := rand.New(rand.NewSource(int64(kind) + 4242))
			var live []SegmentID
			for v := 0; v < totalOps; v++ {
				if rng.Intn(3) == 0 && len(live) > 0 {
					i := rng.Intn(len(live))
					id := live[i]
					live = append(live[:i], live[i+1:]...)
					if err := db.Delete(id); err != nil {
						t.Fatalf("%v: delete %d: %v", kind, id, err)
					}
					log[v] = mvccOp{del: true, id: id}
				} else {
					s := mvccRandSeg(rng)
					id, err := db.Add(s)
					if err != nil {
						t.Fatalf("%v: add: %v", kind, err)
					}
					live = append(live, id)
					log[v] = mvccOp{id: id, s: s}
				}
				published.Store(int64(v + 1))
				if v%300 == 299 {
					if err := db.Compact(); err != nil {
						t.Fatalf("%v: compact: %v", kind, err)
					}
				}
				if v%16 == 15 {
					// Give readers a scheduling window mid-storm so
					// queries actually land on intermediate epochs.
					runtime.Gosched()
				}
			}
			// Don't end the storm before the readers have exercised a
			// meaningful number of pinned-snapshot queries.
			for queriesRun.Load() < 200 && !t.Failed() {
				runtime.Gosched()
			}
			close(done)
			wg.Wait()
			if t.Failed() {
				return
			}

			if got := db.LockedReads(); got != 0 {
				t.Fatalf("%v: LockedReads = %d after the storm, want 0 (readers never touch the lock)", kind, got)
			}
			m := db.Metrics()
			if m.StagedOps != totalOps {
				t.Fatalf("%v: StagedOps = %d, want %d", kind, m.StagedOps, totalOps)
			}
			if m.Compactions == 0 {
				t.Fatalf("%v: no compactions during the storm", kind)
			}
			// Final state must equal a full sequential replay.
			want := replayLive(log)
			got := windowIDs(t, db, World())
			if len(got) != len(want) {
				t.Fatalf("%v: final live count %d, replay says %d", kind, len(got), len(want))
			}
			for _, id := range got {
				if _, ok := want[id]; !ok {
					t.Fatalf("%v: final state has id %d, replay does not", kind, id)
				}
			}
		})
	}
}

// --- DropCaches / Scrub under pinned snapshots -----------------------------

// TestDropCachesUnderPinnedSnapshots hammers DropCaches (and Scrub)
// while concurrent readers hold pinned snapshots mid-query, under the
// race detector. Cache eviction must never change an answer and must
// never evict a page out from under a reader that has it pinned.
func TestDropCachesUnderPinnedSnapshots(t *testing.T) {
	for _, kind := range []Kind{RStarTree, PMRQuadtree} {
		db, err := Open(kind, WithStagedIngest(), WithWALFS(NewMemWALFS()))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		segs := make([]Segment, 1500)
		for i := range segs {
			segs[i] = mvccRandSeg(rng)
		}
		if _, err := db.AddBatch(segs); err != nil {
			t.Fatal(err)
		}
		wantTotal := db.Len()

		var wg sync.WaitGroup
		done := make(chan struct{})
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(gid int) {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					n := 0
					if err := db.Window(World(), func(SegmentID, Segment) bool { n++; return true }); err != nil {
						t.Errorf("%v: window during cache churn: %v", kind, err)
						return
					}
					if n != wantTotal {
						t.Errorf("%v: window saw %d segments during cache churn, want %d", kind, n, wantTotal)
						return
					}
				}
			}(g)
		}
		for i := 0; i < 150; i++ {
			if err := db.DropCaches(); err != nil {
				t.Fatalf("%v: DropCaches: %v", kind, err)
			}
			if i%25 == 24 {
				if rep, err := db.Scrub(); err != nil {
					t.Fatalf("%v: Scrub: %v", kind, err)
				} else if len(rep.BadIndexPages) != 0 || len(rep.BadTablePages) != 0 {
					t.Fatalf("%v: scrub flagged pages on a healthy database: %+v", kind, rep)
				}
			}
		}
		close(done)
		wg.Wait()
		if db.LockedReads() != 0 {
			t.Fatalf("%v: LockedReads = %d, want 0", kind, db.LockedReads())
		}
	}
}

// --- staged WAL recovery ---------------------------------------------------

func TestStagedWALRecovery(t *testing.T) {
	wfs := NewMemWALFS()
	db, err := Open(UniformGrid, WithWALFS(wfs), WithStagedIngest(), WithCompactThreshold(-1))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var ids []SegmentID
	for i := 0; i < 50; i++ {
		id, err := db.Add(mvccRandSeg(rng))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i := 0; i < 10; i++ {
		if err := db.Delete(ids[i*3]); err != nil {
			t.Fatal(err)
		}
	}
	wantIDs := windowIDs(t, db, World())
	if len(wantIDs) != 40 {
		t.Fatalf("pre-crash live count = %d, want 40", len(wantIDs))
	}

	// Crash without a checkpoint: every staged op lives only in the WAL.
	db2, rep, err := RecoverFS(wfs, WithStagedIngest())
	if err != nil {
		t.Fatal(err)
	}
	if rep.OpsReplayed != 60 {
		t.Fatalf("OpsReplayed = %d, want 60 (50 adds + 10 deletes)", rep.OpsReplayed)
	}
	if got := windowIDs(t, db2, World()); !slices.Equal(got, wantIDs) {
		t.Fatalf("recovered live set %v != pre-crash %v", got, wantIDs)
	}
	if eid, _ := db2.Epoch(); eid == 0 {
		t.Fatal("recovered database is not in staged mode despite WithStagedIngest")
	}

	// Recovery into legacy mode folds the staged ops the same way.
	db3, _, err := RecoverFS(wfs)
	if err != nil {
		t.Fatal(err)
	}
	if eid, _ := db3.Epoch(); eid != 0 {
		t.Fatal("recovery without WithStagedIngest produced a staged database")
	}
	if got := windowIDs(t, db3, World()); !slices.Equal(got, wantIDs) {
		t.Fatalf("legacy-mode recovery live set %v != pre-crash %v", got, wantIDs)
	}
}

func TestStagedWALRecoveryAfterCompact(t *testing.T) {
	wfs := NewMemWALFS()
	db, err := Open(RPlusTree, WithWALFS(wfs), WithStagedIngest(), WithCompactThreshold(-1))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 30; i++ {
		if _, err := db.Add(mvccRandSeg(rng)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	// Post-compaction staged tail: only these should need replay.
	for i := 0; i < 5; i++ {
		if _, err := db.Add(mvccRandSeg(rng)); err != nil {
			t.Fatal(err)
		}
	}
	wantIDs := windowIDs(t, db, World())

	db2, rep, err := RecoverFS(wfs, WithStagedIngest())
	if err != nil {
		t.Fatal(err)
	}
	if rep.OpsReplayed != 5 {
		t.Fatalf("OpsReplayed = %d, want 5 (compaction checkpointed the first 30)", rep.OpsReplayed)
	}
	if got := windowIDs(t, db2, World()); !slices.Equal(got, wantIDs) {
		t.Fatalf("recovered live set %v != pre-crash %v", got, wantIDs)
	}
}

// TestStagedCheckpointCompactsFirst pins the invariant recovery relies
// on: a checkpoint in staged mode first compacts, so its image carries
// the whole state and the WAL never replays staged ops across one.
func TestStagedCheckpointCompactsFirst(t *testing.T) {
	wfs := NewMemWALFS()
	db, err := Open(RStarTree, WithWALFS(wfs), WithStagedIngest(), WithCompactThreshold(-1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := db.Add(Seg(int32(i*10), 50, int32(i*10)+8, 58)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := db.StagedSize(); got != 0 {
		t.Fatalf("StagedSize after Checkpoint = %d, want 0 (checkpoint must compact first)", got)
	}
	db2, rep, err := RecoverFS(wfs, WithStagedIngest())
	if err != nil {
		t.Fatal(err)
	}
	if rep.OpsReplayed != 0 {
		t.Fatalf("OpsReplayed = %d after a checkpoint, want 0", rep.OpsReplayed)
	}
	if db2.Len() != 12 {
		t.Fatalf("recovered Len = %d, want 12", db2.Len())
	}
}

// --- AddBatch bulk merge (satellite) ---------------------------------------

// TestAddBatchMergeBulkClass asserts the non-empty AddBatch contract:
// it counts as a bulk merge, answers queries exactly like a one-shot
// build over the union, and its disk traffic is bulk-class — far below
// the insert-split churn of a per-segment Add loop over the same batch.
func TestAddBatchMergeBulkClass(t *testing.T) {
	segs := bulkSample(t, 2400)
	first, second := segs[:1200], segs[1200:]

	merged, err := Open(RStarTree)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := merged.AddBatch(first); err != nil {
		t.Fatal(err)
	}
	if _, err := merged.AddBatch(second); err != nil {
		t.Fatal(err)
	}
	if m := merged.Metrics(); m.BulkMerges != 1 {
		t.Fatalf("BulkMerges = %d after AddBatch on non-empty, want 1", m.BulkMerges)
	}

	oneshot, err := Open(RStarTree)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := oneshot.AddBatch(segs); err != nil {
		t.Fatal(err)
	}
	for _, r := range []Rect{World(), RectOf(100, 100, 8000, 8000)} {
		if got, want := windowIDs(t, merged, r), windowIDs(t, oneshot, r); !slices.Equal(got, want) {
			t.Fatalf("merged build answers differently from one-shot build on %v", r)
		}
	}

	// Traffic class: the bulk merge touches each index page once; a
	// per-segment Add loop pays a root-to-leaf traversal plus split
	// churn per segment. Page requests count that churn even when the
	// buffer pool absorbs the re-reads.
	incremental, err := Open(RStarTree)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := incremental.AddBatch(first); err != nil {
		t.Fatal(err)
	}
	for _, s := range second {
		if _, err := incremental.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	// Segment-table traffic (appends, sort reads) is common to both
	// paths, so compare the index structure's own page requests.
	mw := merged.Index().DiskStats().Requests()
	iw := incremental.Index().DiskStats().Requests()
	if mw*2 >= iw {
		t.Fatalf("bulk merge made %d index page requests vs %d for the Add loop — not bulk-class", mw, iw)
	}

	// Staged mode: AddBatch stages then compacts inline; readers see the
	// batch atomically and the result is still a bulk merge.
	staged, err := Open(RStarTree, WithStagedIngest())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := staged.AddBatch(first); err != nil {
		t.Fatal(err)
	}
	if _, err := staged.AddBatch(second); err != nil {
		t.Fatal(err)
	}
	if m := staged.Metrics(); m.BulkMerges != 2 {
		t.Fatalf("staged BulkMerges = %d, want 2", m.BulkMerges)
	}
	if got, want := windowIDs(t, staged, World()), windowIDs(t, oneshot, World()); !slices.Equal(got, want) {
		t.Fatal("staged AddBatch answers differently from one-shot build")
	}
	if staged.StagedSize() != 0 {
		t.Fatalf("StagedSize = %d after staged AddBatch, want 0 (compacted inline)", staged.StagedSize())
	}
}
