package router

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"segdb"
)

// TestIngestEquivalence routes segments into a live router and checks
// the routed answers against an unsharded database holding the union,
// for every shard count.
func TestIngestEquivalence(t *testing.T) {
	segs := routerSample(t, 1200)
	initial, extra := segs[:800], segs[800:]
	for _, kind := range testKinds {
		for _, shards := range shardCounts {
			r, err := Build(kind, initial, shards, segdb.WithStagedIngest())
			if err != nil {
				t.Fatal(err)
			}
			ids, err := r.Ingest(extra)
			if err != nil {
				t.Fatalf("%v/%d shards: ingest: %v", kind, shards, err)
			}
			for i, id := range ids {
				if want := segdb.SegmentID(len(initial) + i); id != want {
					t.Fatalf("%v/%d shards: ingested id[%d] = %d, want %d", kind, shards, i, id, want)
				}
				s, err := routedSeg(r, id)
				if err != nil {
					t.Fatalf("%v/%d shards: Get(%d): %v", kind, shards, id, err)
				}
				if s != extra[i] {
					t.Fatalf("%v/%d shards: Get(%d) = %v, want %v", kind, shards, id, s, extra[i])
				}
			}
			if r.Len() != len(segs) {
				t.Fatalf("%v/%d shards: Len = %d, want %d", kind, shards, r.Len(), len(segs))
			}
			if r.Ingested() != uint64(len(extra)) {
				t.Fatalf("%v/%d shards: Ingested = %d, want %d", kind, shards, r.Ingested(), len(extra))
			}

			truth := groundTruth(t, kind, segs)
			rng := rand.New(rand.NewSource(int64(shards)))
			for trial := 0; trial < 20; trial++ {
				rect := segdb.RectOf(rng.Int31n(segdb.WorldSize), rng.Int31n(segdb.WorldSize),
					rng.Int31n(segdb.WorldSize), rng.Int31n(segdb.WorldSize))
				hits, _, err := r.WindowAppendCtx(context.Background(), rect, nil)
				got := hitIDs(hits)
				if err != nil {
					t.Fatal(err)
				}
				want := sortedWindowIDs(t, truth, rect)
				if !slices.Equal(got, want) {
					t.Fatalf("%v/%d shards trial %d: routed window %v, unsharded %v", kind, shards, trial, got, want)
				}
			}

			// Compaction folds every shard's staging tier; answers must
			// not change.
			if err := r.Compact(); err != nil {
				t.Fatalf("%v/%d shards: compact: %v", kind, shards, err)
			}
			rect := segdb.World()
			hits, _, err := r.WindowAppendCtx(context.Background(), rect, nil)
			got := hitIDs(hits)
			if err != nil {
				t.Fatal(err)
			}
			if want := sortedWindowIDs(t, truth, rect); !slices.Equal(got, want) {
				t.Fatalf("%v/%d shards: world window after compaction differs", kind, shards)
			}
		}
	}
}

func TestIngestValidation(t *testing.T) {
	r, err := Build(segdb.RStarTree, routerSample(t, 100), 2, segdb.WithStagedIngest())
	if err != nil {
		t.Fatal(err)
	}
	if ids, err := r.Ingest(nil); err != nil || ids != nil {
		t.Fatalf("empty ingest = %v, %v", ids, err)
	}
	bad := []segdb.Segment{segdb.Seg(0, 0, 5, 5), {P1: segdb.Pt(-1, 0), P2: segdb.Pt(5, 5)}}
	if _, err := r.Ingest(bad); err == nil {
		t.Fatal("ingest of an out-of-world segment succeeded")
	}
	if r.Len() != 100 {
		t.Fatalf("failed ingest changed Len to %d", r.Len())
	}
}

// TestIngestConcurrentWithQueries runs routed queries from several
// goroutines through a sustained ingest stream, under the race
// detector. Answers are checked for internal consistency (sorted unique
// global IDs, every ID resolvable) rather than against a fixed oracle —
// the collection is moving — and the final state must match the
// unsharded union.
func TestIngestConcurrentWithQueries(t *testing.T) {
	segs := routerSample(t, 1500)
	initial, stream := segs[:500], segs[500:]
	r, err := Build(segdb.PMRQuadtree, initial, 4, segdb.WithStagedIngest(), segdb.WithCompactThreshold(200))
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	var failed atomic.Bool
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(gid int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(gid) + 77))
			for {
				select {
				case <-done:
					return
				default:
				}
				rect := segdb.RectOf(rng.Int31n(segdb.WorldSize), rng.Int31n(segdb.WorldSize),
					rng.Int31n(segdb.WorldSize), rng.Int31n(segdb.WorldSize))
				hits, _, err := r.WindowAppendCtx(context.Background(), rect, nil)
				got := hitIDs(hits)
				if err != nil {
					t.Errorf("window during ingest: %v", err)
					failed.Store(true)
					return
				}
				for i := 1; i < len(got); i++ {
					if got[i] <= got[i-1] {
						t.Errorf("routed window not sorted-unique at %d: %v then %v", i, got[i-1], got[i])
						failed.Store(true)
						return
					}
				}
				for _, id := range got {
					if _, err := routedSeg(r, id); err != nil {
						t.Errorf("window returned unresolvable global id %d: %v", id, err)
						failed.Store(true)
						return
					}
				}
				if _, _, err := r.NearestKCtx(context.Background(), segdb.Pt(rng.Int31n(segdb.WorldSize), rng.Int31n(segdb.WorldSize)), 3); err != nil {
					t.Errorf("nearestk during ingest: %v", err)
					failed.Store(true)
					return
				}
			}
		}(g)
	}

	for i := 0; i < len(stream) && !failed.Load(); i += 25 {
		end := min(i+25, len(stream))
		if _, err := r.Ingest(stream[i:end]); err != nil {
			t.Fatalf("ingest batch at %d: %v", i, err)
		}
		if i%200 == 100 {
			if err := r.Compact(); err != nil {
				t.Fatalf("compact during stream: %v", err)
			}
		}
	}
	close(done)
	wg.Wait()
	if t.Failed() {
		return
	}

	for i, sh := range r.shards {
		if got := sh.db.LockedReads(); got != 0 {
			t.Fatalf("shard %d: LockedReads = %d, want 0 (staged shards serve reads lock-free)", i, got)
		}
	}
	truth := groundTruth(t, segdb.PMRQuadtree, segs)
	hits, _, err := r.WindowAppendCtx(context.Background(), segdb.World(), nil)
	got := hitIDs(hits)
	if err != nil {
		t.Fatal(err)
	}
	if want := sortedWindowIDs(t, truth, segdb.World()); !slices.Equal(got, want) {
		t.Fatalf("final routed state (%d ids) differs from unsharded union (%d ids)", len(got), len(want))
	}
}
