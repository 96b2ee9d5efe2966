package segdb

import (
	"fmt"
	"slices"
	"testing"

	"segdb/internal/store"
)

// liveWindowIDs is the brute-force answer to a window over a model of the
// live segments.
func liveWindowIDs(live map[SegmentID]Segment, r Rect) []SegmentID {
	var ids []SegmentID
	for id, s := range live {
		if r.IntersectsSegment(s) {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids
}

// The decode-once node cache must serve warm queries of every index kind
// without re-decoding — R-tree nodes classic and compressed, and the
// compressed leaves of the kinds stored in a B+-tree — and must never
// serve a stale node: not after an Add or a Delete, not after DropCaches,
// not after a scrub repair, not across a crash recovery. A classic
// B+-tree page is read in place and never decoded, so at level 0 those
// kinds must record no decode at all while every answer stays right.
func TestDecodeCacheWarmQueriesAndFreshness(t *testing.T) {
	for _, kind := range allKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			for _, level := range []int{0, 1} {
				t.Run(fmt.Sprintf("level%d", level), func(t *testing.T) {
					decodeCacheFreshness(t, kind, level)
				})
			}
		})
	}
}

func decodeCacheFreshness(t *testing.T, kind Kind, level int) {
	wfs := NewMemWALFS()
	// 256 pages hold every index of this size whole, so a repeated query
	// finds every frame resident.
	db, err := Open(kind, WithWALFS(wfs), WithDegradedReads(true), WithPoolPages(256), WithPageCompression(level))
	if err != nil {
		t.Fatal(err)
	}
	// inPlace: every page the index reads is a classic B+-tree page, so
	// no query may decode; the other checks apply to the rest.
	inPlace := level == 0 && (kind == PMRQuadtree || kind == UniformGrid)
	decoded := func(when string) (hits, misses uint64) {
		t.Helper()
		hits, misses = db.DecodeCacheStats()
		if inPlace && hits+misses != 0 {
			t.Fatalf("%s: classic B+-tree pages recorded %d decode hits and %d decodes, want none", when, hits, misses)
		}
		return hits, misses
	}
	live := make(map[SegmentID]Segment)
	segs := crashSegments(230, 37)
	for _, s := range segs[:200] {
		id, err := db.Add(s)
		if err != nil {
			t.Fatal(err)
		}
		live[id] = s
	}
	windows := []Rect{World(), RectOf(3000, 3000, 9000, 9000)}
	check := func(when string) {
		t.Helper()
		for _, w := range windows {
			if got, want := windowIDs(t, db, w), liveWindowIDs(live, w); !sameIDs(got, want) {
				t.Fatalf("%s: window %v: %d ids, want %d", when, w, len(got), len(want))
			}
		}
	}
	check("after build")
	if _, misses := decoded("after build"); misses == 0 && !inPlace {
		t.Fatal("window queries recorded no node decodes")
	}
	// A repeat of the same windows over warm frames must be served from
	// the decode cache: hits move, misses do not.
	hits1, misses1 := decoded("after build")
	check("warm repeat")
	hits2, misses2 := decoded("warm repeat")
	if hits2 <= hits1 && !inPlace {
		t.Errorf("warm windows recorded no decode hits (%d -> %d)", hits1, hits2)
	}
	if misses2 != misses1 {
		t.Errorf("warm windows re-decoded %d nodes", misses2-misses1)
	}

	// Writes between reads: every Add and Delete dirties pages whose
	// decoded form is resident, and the next read must see the new bytes.
	for i, s := range segs[200:] {
		id, err := db.Add(s)
		if err != nil {
			t.Fatal(err)
		}
		live[id] = s
		check(fmt.Sprintf("after add %d", i))
		if i%2 == 0 {
			victim := slices.Min(liveWindowIDs(live, World()))
			if err := db.Delete(victim); err != nil {
				t.Fatal(err)
			}
			delete(live, victim)
			check(fmt.Sprintf("after delete %d", victim))
		}
	}

	// DropCaches empties the slots with the frames: the next window
	// decodes again.
	if err := db.DropCaches(); err != nil {
		t.Fatal(err)
	}
	_, misses3 := decoded("before DropCaches")
	check("after DropCaches")
	if _, misses4 := decoded("after DropCaches"); misses4 == misses3 && !inPlace {
		t.Error("window after DropCaches decoded nothing")
	}

	// Corrupt an index page at rest, quarantine it through a degraded
	// query, repair with Scrub: the post-repair window must see the
	// repaired bytes, not a cached decode of the old frame.
	if err := db.DropCaches(); err != nil {
		t.Fatal(err)
	}
	if err := db.pool.Disk().CorruptPage(0, 123); err != nil {
		t.Fatal(err)
	}
	st, err := db.WindowCtx(t.Context(), World(), func(SegmentID, Segment) bool { return true })
	if err != nil {
		t.Fatalf("degraded window: %v", err)
	}
	if st.SkippedPages == 0 {
		t.Fatal("degraded query skipped nothing over a corrupt page")
	}
	if rep, err := db.Scrub(); err != nil || rep.Repaired == 0 {
		t.Fatalf("Scrub: rep=%+v err=%v", rep, err)
	}
	check("after Scrub")
	decoded("after Scrub")

	// Crash (drop the DB without closing) and recover: the new pool
	// starts with an empty decode cache and correct contents.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db, _, err = RecoverFS(wfs)
	if err != nil {
		t.Fatalf("RecoverFS: %v", err)
	}
	if h, m := db.DecodeCacheStats(); h != 0 || m != 0 {
		t.Fatalf("recovered DB starts with decode stats %d/%d, want 0/0", h, m)
	}
	check("after RecoverFS")
	if _, m := decoded("after RecoverFS"); m == 0 && !inPlace {
		t.Error("post-recover window decoded nothing")
	}
}

// On the kinds stored in a B+-tree a read-only run decodes a compressed
// leaf exactly when it enters the pool, and no other page ever: with the
// pool a fraction of the index, decodes equal the pool misses of
// compressed leaves, every other touch of a leaf is served from its slot,
// and the internal pages are read in place.
func TestDecodeCacheOneDecodePerBTreePoolMiss(t *testing.T) {
	for _, kind := range []Kind{UniformGrid, PMRQuadtree} {
		t.Run(kind.String(), func(t *testing.T) {
			db, err := Open(kind, WithPageCompression(1))
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range crashSegments(1500, 5) {
				if _, err := db.Add(s); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.DropCaches(); err != nil {
				t.Fatal(err)
			}
			reads0 := db.pool.Stats().Reads
			tr := &indexMissTracer{pool: db.pool, reads: reads0}
			db.SetTracer(tr)
			hits0, misses0 := db.DecodeCacheStats()
			for x := int32(0); x < WorldSize; x += 1024 {
				windowIDs(t, db, RectOf(x, x, x+2048, x+2048))
			}
			db.SetTracer(nil)
			hits, misses := db.DecodeCacheStats()
			reads := db.pool.Stats().Reads - reads0
			if uint64(tr.misses) != reads {
				t.Fatalf("trace shows %d index page misses, the pool %d", tr.misses, reads)
			}
			if tr.leafMisses == 0 || tr.leafMisses == tr.misses || misses-misses0 != uint64(tr.leafMisses) {
				t.Errorf("%d decodes for %d compressed-leaf pool misses (of %d), want them equal, non-zero and fewer than all misses",
					misses-misses0, tr.leafMisses, tr.misses)
			}
			if hits == hits0 {
				t.Error("no page request was served from a decoded slot")
			}
		})
	}
}

// indexMissTracer counts the index pool's misses in a trace of
// sequential queries — every index page request is followed at once by
// its NodeVisit, so a visit after which the pool's read count moved
// was a miss — and among them those whose page is a compressed B+-tree
// leaf.
type indexMissTracer struct {
	pool               *store.Pool
	reads              uint64
	misses, leafMisses int
}

func (tr *indexMissTracer) QueryStart(QueryInfo)                     {}
func (tr *indexMissTracer) QueryFinish(QueryInfo, QueryStats, error) {}
func (tr *indexMissTracer) PageFault(QueryInfo, uint32)              {}
func (tr *indexMissTracer) NodeVisit(_ QueryInfo, page uint32) {
	if r := tr.pool.Stats().Reads; r != tr.reads {
		tr.reads = r
		tr.misses++
		if data, err := tr.pool.Disk().RawPage(store.PageID(page)); err == nil && data[0] == 2 {
			tr.leafMisses++
		}
	}
}
