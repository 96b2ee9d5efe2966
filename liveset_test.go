package segdb

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"segdb/internal/geom"
	"segdb/internal/seg"
	"segdb/internal/store"
)

// charlesPrefix returns the first n segments of the Charles county map.
func charlesPrefix(t *testing.T, n int) []Segment {
	t.Helper()
	m, err := GenerateCounty("Charles")
	if err != nil {
		t.Fatal(err)
	}
	return m.Segments[:n]
}

// traversalLive is the live set derived the way the write path did
// before the table knew its dead slots: a whole-world window over the
// index in place; in staged mode, that window over the base index minus
// the tombstones, plus the memtable's live adds. Sorted.
func traversalLive(t *testing.T, db *DB) []SegmentID {
	t.Helper()
	var ids []SegmentID
	if err := db.index.WindowObs(World(), func(id SegmentID, _ Segment) bool {
		ids = append(ids, id)
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
	if db.stagedMode() {
		ids = slices.DeleteFunc(ids, func(id SegmentID) bool {
			_, tomb := slices.BinarySearch(db.tombs, id)
			return tomb
		})
		db.mem.ForEachVisibleLive(db.mem.Len(), db.version, func(id seg.ID, _ geom.Segment) {
			ids = append(ids, id)
		})
	}
	slices.Sort(ids)
	return ids
}

// TestOverlayAfterDeleteSkipsDeadSlots is the reproducer of the in-place
// overlay that reported pairs for deleted segments: the table scan of the
// nested-loop join visited their slots. After two deletes every kind
// must report no pair with a deleted id on either side and the same
// number of pairs, before and after a Save/Load round trip, whose Load
// rebuilds the dead slots.
func TestOverlayAfterDeleteSkipsDeadSlots(t *testing.T) {
	segs := charlesPrefix(t, 6000)
	overlayPairs := func(db *DB, dead map[SegmentID]bool) int {
		t.Helper()
		n := 0
		if _, err := db.OverlayCtx(context.Background(), db, func(a, b SegmentID, _, _ Segment) bool {
			if dead[a] || dead[b] {
				t.Errorf("%v: overlay pair (%d, %d) has a deleted segment", db.Kind(), a, b)
			}
			n++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return n
	}
	want := -1
	for _, kind := range allKinds() {
		db, err := Open(kind)
		if err != nil {
			t.Fatal(err)
		}
		ids, err := db.AddBatch(segs)
		if err != nil {
			t.Fatal(err)
		}
		dead := map[SegmentID]bool{ids[5]: true, ids[77]: true}
		for id := range dead {
			if err := db.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
		n := overlayPairs(db, dead)
		if want < 0 {
			want = n
		} else if n != want {
			t.Errorf("%v: overlay reports %d pairs, %v reported %d", kind, n, allKinds()[0], want)
		}
		var buf bytes.Buffer
		if err := db.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if n := overlayPairs(loaded, dead); n != want {
			t.Errorf("%v: after Save/Load the overlay reports %d pairs, want %d", kind, n, want)
		}
	}
}

// TestLiveSetMatchesOracle plays a seeded storm of writes against every
// kind in both write modes — adds, deletes of live, dead and never-used
// ids, bulk merges, compactions, Save/Load round trips and recoveries
// from the log — and after every op requires the table's live slots to
// equal the ids the test's own model holds and the ids the writer's view
// answers for (traversalLive).
func TestLiveSetMatchesOracle(t *testing.T) {
	segs := charlesPrefix(t, 2000)
	for _, kind := range allKinds() {
		for _, staged := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/staged=%v", kind, staged), func(t *testing.T) {
				liveSetStorm(t, kind, staged, segs)
			})
		}
	}
}

func liveSetStorm(t *testing.T, kind Kind, staged bool, segs []Segment) {
	wfs := NewMemWALFS()
	var runtime []Option
	if staged {
		runtime = []Option{WithStagedIngest(), WithCompactThreshold(64)}
	}
	db, err := Open(kind, append([]Option{WithWALFS(wfs)}, runtime...)...)
	if err != nil {
		t.Fatal(err)
	}
	model := make(map[SegmentID]bool)   // the segments the test holds live
	deleted := make(map[SegmentID]bool) // those it deleted
	// Finding (a) (ROADMAP item 1): a PMR Delete in place can leave
	// q-edges behind, so the traversal still answers for the segment, and
	// a Load that rebuilds the dead slots from it revives the slot. Such
	// ghosts of deleted segments are set aside, for that kind and mode
	// only, and counted in the log.
	ghosts := make(map[SegmentID]bool)
	ghostsAllowed := kind == PMRQuadtree && !staged
	dropGhosts := func(ids []SegmentID, when string) []SegmentID {
		t.Helper()
		return slices.DeleteFunc(ids, func(id SegmentID) bool {
			if model[id] {
				return false
			}
			if !ghostsAllowed || !deleted[id] {
				t.Fatalf("%s: slot %d is live, but the test never held it or deleted it", when, id)
			}
			ghosts[id] = true
			return true
		})
	}
	check := func(db *DB, when string) {
		t.Helper()
		got := db.table.AppendLive(nil)
		oracle := traversalLive(t, db)
		var want []SegmentID
		for id := range model {
			want = append(want, id)
		}
		slices.Sort(want)
		if got = dropGhosts(got, when); !slices.Equal(got, want) {
			t.Fatalf("%s: table has %d live slots, the model %d", when, len(got), len(want))
		}
		if oracle = dropGhosts(oracle, when); !slices.Equal(got, oracle) {
			t.Fatalf("%s: table has %d live slots, the writer's view answers for %d", when, len(got), len(oracle))
		}
	}
	defer func() {
		if len(ghosts) > 0 {
			t.Logf("finding (a): %d deleted segments still answered for by the index", len(ghosts))
		}
	}()
	rng := rand.New(rand.NewSource(int64(kind)*2 + int64(len(segs))))
	next := 0
	for op := 0; op < 600 && next < len(segs)-40; op++ {
		var when string
		switch r := rng.Intn(100); {
		case r < 50:
			when = "add"
			id, err := db.Add(segs[next])
			if err != nil {
				t.Fatal(err)
			}
			next++
			model[id] = true
		case r < 80:
			id := SegmentID(rng.Intn(db.table.Len() + 4))
			when = fmt.Sprintf("delete %d", id)
			err := db.Delete(id)
			switch {
			case model[id] && err != nil:
				t.Fatalf("%s of a live segment: %v", when, err)
			case !model[id] && !ghosts[id] && !errors.Is(err, seg.ErrNotIndexed):
				t.Fatalf("%s of a dead or unused slot = %v, want ErrNotIndexed", when, err)
			}
			if model[id] {
				deleted[id] = true
			}
			delete(model, id)
		case r < 88:
			k := 1 + rng.Intn(30)
			when = fmt.Sprintf("batch of %d", k)
			ids, err := db.AddBatch(segs[next : next+k])
			if err != nil {
				t.Fatal(err)
			}
			next += k
			for _, id := range ids {
				model[id] = true
			}
		case r < 92:
			when = "compact"
			if err := db.Compact(); err != nil && !errors.Is(err, ErrNotStaged) {
				t.Fatal(err)
			}
		case r < 96:
			// Save writes the base index only, so a staged database is
			// compacted first for its image to hold every live segment.
			when = "save/load"
			if staged {
				if err := db.Compact(); err != nil {
					t.Fatal(err)
				}
			}
			var buf bytes.Buffer
			if err := db.Save(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := Load(&buf)
			if err != nil {
				t.Fatal(err)
			}
			check(loaded, when)
		default:
			when = "recover"
			if db, _, err = RecoverFS(wfs, runtime...); err != nil {
				t.Fatal(err)
			}
		}
		check(db, fmt.Sprintf("op %d (%s)", op, when))
	}
}

// TestFailedAddIsNotLive pins the failure contract: an Add that returns
// no id leaves no live slot. The id is dead, Delete misses it, and the
// next compaction (staged) or bulk merge (in place) leaves it out.
func TestFailedAddIsNotLive(t *testing.T) {
	segs := crashSegments(3000, 41)
	notLive := func(t *testing.T, db *DB, id SegmentID) {
		t.Helper()
		if db.table.Live(id) {
			t.Fatalf("the failed Add's slot %d is live", id)
		}
		if err := db.Delete(id); !errors.Is(err, seg.ErrNotIndexed) {
			t.Fatalf("Delete(%d) of the failed Add = %v, want ErrNotIndexed", id, err)
		}
	}
	absent := func(t *testing.T, db *DB, id SegmentID) {
		t.Helper()
		if slices.Contains(windowIDs(t, db, World()), id) {
			t.Fatalf("the failed Add's segment %d is back in the index", id)
		}
		if slices.Contains(db.table.AppendLive(nil), id) {
			t.Fatalf("the failed Add's slot %d is live again", id)
		}
	}
	t.Run("staged log append", func(t *testing.T) {
		wfs := NewMemWALFS()
		db, err := Open(RStarTree, WithWALFS(wfs), WithStagedIngest(), WithCompactThreshold(-1))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range segs[:50] {
			if _, err := db.Add(s); err != nil {
				t.Fatal(err)
			}
		}
		wfs.SetCrashAfterWrites(1, 9) // the op record's Write
		if id, err := db.Add(segs[50]); !errors.Is(err, ErrWALCrash) || id != seg.NilID {
			t.Fatalf("Add during the crash = %d, %v; want NilID, ErrWALCrash", id, err)
		}
		failed := SegmentID(db.table.Len() - 1)
		wfs.Reboot()
		notLive(t, db, failed)
		if err := db.Compact(); err != nil {
			t.Fatal(err)
		}
		absent(t, db, failed)
	})
	t.Run("in-place index write", func(t *testing.T) {
		db, err := Open(RStarTree)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.AddBatch(segs[:2500]); err != nil {
			t.Fatal(err)
		}
		// Only the index disk fails, so the table append succeeds and the
		// insert fails at its first page write.
		db.pool.Disk().SetFaultPolicy(store.NewFaultPolicy(store.FaultConfig{WriteErrorProb: 1}))
		failed := seg.NilID
		for _, s := range segs[2500:] {
			if _, err := db.Add(s); err != nil {
				failed = SegmentID(db.table.Len() - 1)
				break
			}
		}
		if failed == seg.NilID {
			t.Fatal("no Add failed on an index disk that rejects every write")
		}
		db.pool.Disk().SetFaultPolicy(nil)
		notLive(t, db, failed)
		if _, err := db.AddBatch(segs[:1]); err != nil {
			t.Fatal(err)
		}
		absent(t, db, failed)
	})
	t.Run("in-place bulk merge", func(t *testing.T) {
		db, err := Open(RStarTree)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.AddBatch(segs[:100]); err != nil {
			t.Fatal(err)
		}
		// The rebuild's fresh disk inherits the policy; the table's does
		// not have one, so every append succeeds first.
		db.pool.Disk().SetFaultPolicy(store.NewFaultPolicy(store.FaultConfig{WriteErrorProb: 1}))
		if ids, err := db.AddBatch(segs[100:2100]); err == nil || ids != nil {
			t.Fatalf("bulk merge over a failing index disk = %d ids, %v; want none and an error", len(ids), err)
		}
		db.pool.Disk().SetFaultPolicy(nil)
		for id := SegmentID(100); id < 2100; id += 100 {
			notLive(t, db, id)
		}
		if _, err := db.AddBatch(segs[:1]); err != nil {
			t.Fatal(err)
		}
		if got := len(db.table.AppendLive(nil)); got != 101 {
			t.Fatalf("%d live slots after the failed merge and one more batch, want 101", got)
		}
		absent(t, db, 100)
	})
}

// TestIntegrityCountsLiveSlots: CheckIntegrity compares the table's live
// slots with the index's own count, in both modes, without reading a
// page for it; a slot killed behind the facade's back is reported.
func TestIntegrityCountsLiveSlots(t *testing.T) {
	for _, staged := range []bool{false, true} {
		t.Run(fmt.Sprintf("staged=%v", staged), func(t *testing.T) {
			var opts []Option
			if staged {
				opts = []Option{WithStagedIngest(), WithCompactThreshold(-1)}
			}
			db, err := Open(KDBTree, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := db.AddBatch(crashSegments(120, 42)); err != nil {
				t.Fatal(err)
			}
			for _, s := range crashSegments(10, 43) {
				if _, err := db.Add(s); err != nil {
					t.Fatal(err)
				}
			}
			for _, id := range []SegmentID{3, 64, 125} { // base, base, staged in staged mode
				if err := db.Delete(id); err != nil {
					t.Fatal(err)
				}
			}
			if r := db.CheckIntegrity(); !r.Healthy() {
				t.Fatalf("healthy database reported: %v", r.Err())
			}
			db.table.Kill(7)
			if r := db.CheckIntegrity(); r.Healthy() || !strings.Contains(r.Err().Error(), "live slots") {
				t.Fatalf("a slot killed behind the facade's back: report %v, want the live-slot count", r.Err())
			}
		})
	}
}
