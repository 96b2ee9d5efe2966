package segdb

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"segdb/internal/geom"
	"segdb/internal/obs"
	"segdb/internal/seg"
)

// TestConcurrentCursorHoldsNoPin collects what follows from a segment
// cursor keeping a copy of its page and never a pin on it: readers may
// outnumber a tiny pool's frames, a writer may fill the table's tail page
// under them, and cancellation, degraded reads and newly appended records
// behave on a held page as they do on a fresh one.
func TestConcurrentCursorHoldsNoPin(t *testing.T) {
	t.Run("readers_outnumber_frames", cursorReadersOutnumberFrames)
	t.Run("staged_writer_on_tail_page", cursorStagedWriterOnTailPage)
	t.Run("cancel_on_held_page", cursorCancelOnHeldPage)
	t.Run("degraded_skips_every_candidate", cursorDegradedSkipsEveryCandidate)
	t.Run("reread_past_copied_prefix", cursorRereadPastCopiedPrefix)
}

// nearestDists is the linear-scan answer to a k-NN query, as distances
// (ids of equidistant segments may legitimately differ).
func nearestDists(segs []Segment, p Point, k int) []float64 {
	d := make([]float64, len(segs))
	for i, s := range segs {
		d[i] = geom.DistSqPointSegment(p, s)
	}
	slices.Sort(d)
	return d[:min(k, len(d))]
}

// Eight goroutines of windows and k-NN over pools of two frames: were a
// cursor to hold its page pinned from fetch to fetch, two open cursors
// would pin the whole table pool and the third reader's miss would fail
// with ErrAllPinned however often it retried. Every query must
// succeed and equal a linear scan.
func cursorReadersOutnumberFrames(t *testing.T) {
	m := stressMap(t)
	const workers, perWorker = 8, 40
	for _, k := range []Kind{RStarTree, RPlusTree, PMRQuadtree, UniformGrid} {
		t.Run(k.String(), func(t *testing.T) {
			db, err := Open(k, WithPoolPages(2))
			if err != nil {
				t.Fatal(err)
			}
			ids, err := db.AddBatch(m.Segments)
			if err != nil {
				t.Fatal(err)
			}
			live := make(map[SegmentID]Segment, len(ids))
			for i, id := range ids {
				live[id] = m.Segments[i]
			}
			errs := make([]error, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					for i := 0; i < perWorker && errs[w] == nil; i++ {
						x, y := rng.Int31n(WorldSize), rng.Int31n(WorldSize)
						if i%2 == 0 {
							side := rng.Int31n(WorldSize/4) + 16
							r := RectOf(x, y, min(x+side, WorldSize-1), min(y+side, WorldSize-1))
							var got []SegmentID
							err := db.Window(r, func(id SegmentID, _ Segment) bool { got = append(got, id); return true })
							slices.Sort(got)
							if want := liveWindowIDs(live, r); err != nil || !sameIDs(got, want) {
								errs[w] = fmt.Errorf("window %v: %d ids, want %d (err %w)", r, len(got), len(want), err)
							}
							continue
						}
						kk := 1 + rng.Intn(10)
						res, _, err := db.NearestKAppendCtx(context.Background(), Pt(x, y), kk, nil)
						got := make([]float64, len(res))
						for j, r := range res {
							got[j] = r.DistSq
						}
						if want := nearestDists(m.Segments, Pt(x, y), kk); err != nil || !slices.Equal(got, want) {
							errs[w] = fmt.Errorf("%d-NN of (%d,%d): %v, want %v (err %w)", kk, x, y, got, want, err)
						}
					}
				}()
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// One writer appends onto the table's tail page while four snapshot
// readers traverse: a cursor copies only the records visible when it
// copies, so it never reads the slot the writer is filling (the race
// detector checks that), and every answer is the linear-scan answer over
// the segments its snapshot held — the ids below its count.
func cursorStagedWriterOnTailPage(t *testing.T) {
	m := stressMap(t)
	base := len(m.Segments) / 2
	for _, k := range []Kind{RStarTree, PMRQuadtree} {
		t.Run(k.String(), func(t *testing.T) {
			db, err := Open(k, WithStagedIngest(), WithCompactThreshold(-1))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := db.AddBatch(m.Segments[:base]); err != nil {
				t.Fatal(err)
			}
			// Ids are table slots in append order, so a snapshot that holds n
			// segments holds exactly m.Segments[:n].
			done := make(chan struct{})
			var writeErr error
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer close(done)
				for _, s := range m.Segments[base:] {
					if _, err := db.Add(s); err != nil {
						writeErr = err
						return
					}
				}
			}()
			errs := make([]error, 4)
			for w := range errs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					for stop := false; !stop && errs[w] == nil; {
						select {
						case <-done:
							stop = true // one last query against the final state
						default:
						}
						// The tail of the map is where the appended segments
						// are; a window over everything fetches them all.
						r := World()
						if rng.Intn(2) == 0 {
							x, y := rng.Int31n(WorldSize), rng.Int31n(WorldSize)
							r = RectOf(x, y, min(x+WorldSize/3, WorldSize-1), min(y+WorldSize/3, WorldSize-1))
						}
						var got []SegmentID
						maxID := SegmentID(0)
						err := db.Window(r, func(id SegmentID, s Segment) bool {
							if s != m.Segments[id] {
								errs[w] = fmt.Errorf("id %d came back as %v, want %v", id, s, m.Segments[id])
							}
							got = append(got, id)
							maxID = max(maxID, id)
							return true
						})
						if err != nil {
							errs[w] = err
							return
						}
						// The snapshot held a prefix [0, n) of the map, n at
						// least the base and above every id it returned; an id
						// of the prefix past maxID would have been returned,
						// so the answer is that of the prefix ending at maxID.
						slices.Sort(got)
						var want []SegmentID
						for id, s := range m.Segments[:max(int(maxID)+1, base)] {
							if r.IntersectsSegment(s) {
								want = append(want, SegmentID(id))
							}
						}
						if !sameIDs(got, want) {
							errs[w] = fmt.Errorf("window %v: %d ids, the prefix up to id %d has %d", r, len(got), maxID, len(want))
						}
					}
				}()
			}
			wg.Wait()
			if writeErr != nil {
				t.Fatal(writeErr)
			}
			for _, err := range errs {
				if err != nil {
					t.Error(err)
				}
			}
			if got := len(windowIDs(t, db, World())); got != len(m.Segments) {
				t.Errorf("final world window: %d ids, want %d", got, len(m.Segments))
			}
		})
	}
}

// A context canceled from inside visit must stop the traversal at the
// very next candidate even when every remaining candidate of the leaf
// sits on the cursor's held page, where no pool request would notice.
func cursorCancelOnHeldPage(t *testing.T) {
	for _, k := range []Kind{RStarTree, PMRQuadtree, UniformGrid} {
		t.Run(k.String(), func(t *testing.T) {
			db, err := Open(k)
			if err != nil {
				t.Fatal(err)
			}
			// Forty short segments in one small cell: one table page, one leaf.
			for i := int32(0); i < 40; i++ {
				if _, err := db.Add(Seg(1000+i, 1000, 1000+i, 1010)); err != nil {
					t.Fatal(err)
				}
			}
			r := RectOf(990, 990, 1050, 1020)
			full, err := db.WindowCtx(context.Background(), r, func(SegmentID, Segment) bool { return true })
			if err != nil || full.SegComps < 40 {
				t.Fatalf("uncanceled window: %+v, %v", full, err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			visited := 0
			st, err := db.WindowCtx(ctx, r, func(SegmentID, Segment) bool {
				if visited++; visited == 3 {
					cancel()
				}
				return true
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("canceled window returned %v", err)
			}
			if visited != 3 {
				t.Errorf("visited %d segments, want the 3 before the cancel", visited)
			}
			// The fetch that noticed is charged its comparison, as a one-shot
			// fetch refused by the pool always was.
			if st.SegComps != 4 || st.SegComps >= full.SegComps {
				t.Errorf("canceled window made %d segment comparisons (uncanceled %d), want 4", st.SegComps, full.SegComps)
			}
		})
	}
}

// Under degraded reads a quarantined table page costs every candidate on
// it one skipped page — the failed request leaves the cursor holding
// nothing, so no candidate is answered from a copy, stale or otherwise.
func cursorDegradedSkipsEveryCandidate(t *testing.T) {
	for _, k := range []Kind{RStarTree, PMRQuadtree, UniformGrid} {
		t.Run(k.String(), func(t *testing.T) {
			db, err := Open(k)
			if err != nil {
				t.Fatal(err)
			}
			db.SetDegradedReads(true)
			// 64 records fill table page 0; 20 more start page 1.
			for i := int32(0); i < 84; i++ {
				if _, err := db.Add(Seg(2000+10*i, 2000, 2000+10*i, 2040)); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.DropCaches(); err != nil {
				t.Fatal(err)
			}
			if err := db.table.Disk().CorruptPage(0, 77); err != nil {
				t.Fatal(err)
			}
			for pass := 0; pass < 2; pass++ { // the page fails, then is known bad
				got := 0
				st, err := db.WindowCtx(context.Background(), World(), func(id SegmentID, _ Segment) bool {
					if id < 64 {
						t.Errorf("segment %d served from the corrupt page", id)
					}
					got++
					return true
				})
				if err != nil {
					t.Fatalf("pass %d: %v", pass, err)
				}
				// A candidate is one fetch; the structures that store a segment
				// under several blocks meet a skipped one again in each.
				if got != 20 || st.SkippedPages < 64 || st.SegComps != st.SkippedPages+20 {
					t.Errorf("pass %d: %d segments, %d skipped pages, %d comparisons; want 20, >= 64, skipped+20", pass, got, st.SkippedPages, st.SegComps)
				}
			}
		})
	}
}

// A record appended to the held page after it was copied is not in the
// copy: the fetch goes back to the pool and finds it.
func cursorRereadPastCopiedPrefix(t *testing.T) {
	tab := seg.NewTable(1024, 4)
	for i := int32(0); i < 3; i++ {
		if _, err := tab.Append(Seg(i, i, i+1, i+1)); err != nil {
			t.Fatal(err)
		}
	}
	o := obs.Begin(context.Background(), nil, obs.QueryInfo{})
	cur := tab.Cursor(o)
	if _, err := cur.Get(0); err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Get(3); err == nil {
		t.Fatal("id 3 fetched before it was appended")
	}
	want := Seg(7, 8, 9, 10)
	id, err := tab.Append(want)
	if err != nil || id != 3 {
		t.Fatal(id, err)
	}
	before := tab.DiskStats().Hits
	got, err := cur.Get(id)
	if err != nil || got != want {
		t.Fatalf("appended segment came back as %v, %v", got, err)
	}
	if hits := tab.DiskStats().Hits - before; hits != 1 {
		t.Errorf("the fetch past the copied prefix made %d pool requests, want 1", hits)
	}
	if _, err := cur.Get(1); err != nil { // and the fresh copy serves again
		t.Fatal(err)
	}
	cur.Close()
	if st := o.Stats(); st.SegComps != 3 || st.PoolHits != 3 || st.PoolRequests != 3 {
		t.Errorf("op charged %+v, want 3 comparisons and 3 pool hits", st)
	}
}
