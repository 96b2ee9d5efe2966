package router

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"segdb"
	"segdb/internal/core"
	"segdb/internal/geom"
)

// shardCounts is the fan-out matrix of the equivalence property: one
// shard (must be byte-identical to the unsharded bulk build), powers of
// two, and a prime that exercises the proportional k-d split.
var shardCounts = []int{1, 2, 4, 7}

// testKinds keeps the property-test matrix affordable under -race while
// covering the three structural families: an R-tree (overlapping MBRs),
// the PMR quadtree (regular decomposition, duplicated segments), and
// the k-d-B-tree (disjoint space partition).
var testKinds = []segdb.Kind{segdb.RStarTree, segdb.PMRQuadtree, segdb.KDBTree}

// routerSample subsamples the Charles county map: real noded planar
// segments with the skew a uniform generator would miss.
func routerSample(t *testing.T, n int) []segdb.Segment {
	t.Helper()
	m, err := segdb.GenerateCounty("Charles")
	if err != nil {
		t.Fatal(err)
	}
	if n >= len(m.Segments) {
		return m.Segments
	}
	segs := make([]segdb.Segment, 0, n)
	stride := len(m.Segments) / n
	for i := 0; i < n; i++ {
		segs = append(segs, m.Segments[i*stride])
	}
	return segs
}

// groundTruth bulk-builds the unsharded reference DB.
func groundTruth(t *testing.T, kind segdb.Kind, segs []segdb.Segment) *segdb.DB {
	t.Helper()
	db, err := segdb.Open(kind)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddBatch(segs); err != nil {
		t.Fatal(err)
	}
	return db
}

func sortedWindowIDs(t *testing.T, db *segdb.DB, r segdb.Rect) []segdb.SegmentID {
	t.Helper()
	var ids []segdb.SegmentID
	if _, err := db.WindowCtx(context.Background(), r, func(id segdb.SegmentID, _ segdb.Segment) bool {
		ids = append(ids, id)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	slices.Sort(ids)
	return ids
}

// routedSeg fetches a segment's endpoints by global ID from its home
// shard.
func routedSeg(r *Router, id segdb.SegmentID) (segdb.Segment, error) {
	home := *r.home.Load()
	if int(id) >= len(home) {
		return segdb.Segment{}, fmt.Errorf("global id %d out of range", id)
	}
	return r.shards[home[id].shard].db.Get(home[id].local)
}

// hitIDs lists the IDs of a window answer.
func hitIDs(hits []segdb.WindowHit) []segdb.SegmentID {
	ids := make([]segdb.SegmentID, len(hits))
	for i, h := range hits {
		ids[i] = h.ID
	}
	return ids
}

// sumShardMetrics adds up interleaving-independent counters across the
// shards (pool requests, segment comparisons, node computations — the
// fields whose totals do not depend on cache state or fan-out order).
func sumShardMetrics(r *Router) (poolReqs, segComps, nodeComps uint64) {
	for _, m := range r.ShardMetrics() {
		poolReqs += m.PoolRequests
		segComps += m.SegComps
		nodeComps += m.NodeComps
	}
	return
}

// TestRouterBuildPartition checks the k-d cut's bookkeeping: every
// segment lands in exactly one shard, the shards are balanced within
// the proportional split's rounding, and the home map routes global IDs
// correctly.
func TestRouterBuildPartition(t *testing.T) {
	segs := routerSample(t, 1100)
	for _, shards := range shardCounts {
		r, err := Build(segdb.RStarTree, segs, shards)
		if err != nil {
			t.Fatal(err)
		}
		if r.Shards() != shards {
			t.Fatalf("shards=%d: got %d", shards, r.Shards())
		}
		total, minLen, maxLen := 0, len(segs), 0
		for i := 0; i < r.Shards(); i++ {
			n := r.Shard(i).Len()
			total += n
			minLen, maxLen = min(minLen, n), max(maxLen, n)
		}
		if total != len(segs) || r.Len() != len(segs) {
			t.Fatalf("shards=%d: %d segments across shards, %d total, want %d", shards, total, r.Len(), len(segs))
		}
		// The proportional split floors at each binary cut, so shard sizes
		// differ by at most the cut depth.
		if maxLen-minLen > shards {
			t.Fatalf("shards=%d: unbalanced cut: min %d max %d", shards, minLen, maxLen)
		}
		for _, gi := range []int{0, 1, len(segs) / 2, len(segs) - 1} {
			s, err := routedSeg(r, segdb.SegmentID(gi))
			if err != nil {
				t.Fatal(err)
			}
			if s != segs[gi] {
				t.Fatalf("shards=%d: segment %d routes to %v, want %v", shards, gi, s, segs[gi])
			}
		}
	}
	if _, err := Build(segdb.RStarTree, segs, 0); !errors.Is(err, segdb.ErrInvalidArgument) {
		t.Fatalf("Build with 0 shards: %v", err)
	}
}

// TestEachShardReportsFirstErrorInShardOrder checks that the build and
// compaction fan-out runs every shard and reports the failure of the
// lowest-numbered shard, even when a later shard failed first in time.
func TestEachShardReportsFirstErrorInShardOrder(t *testing.T) {
	shards := make([]*Shard, 4)
	for i := range shards {
		shards[i] = &Shard{}
	}
	ran := make([]bool, len(shards))
	shard3Failed := make(chan struct{})
	err := eachShard(shards, func(i int, sh *Shard) error {
		if sh != shards[i] {
			t.Errorf("f(%d) got another shard", i)
		}
		ran[i] = true
		switch i {
		case 1:
			<-shard3Failed
			return fmt.Errorf("shard %d", i)
		case 3:
			close(shard3Failed)
			return fmt.Errorf("shard %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "shard 1" {
		t.Fatalf("eachShard returned %v, want shard 1's error", err)
	}
	if !slices.Equal(ran, []bool{true, true, true, true}) {
		t.Fatalf("shards run: %v", ran)
	}
}

// TestRouterWindowEquivalence is the core sharding property: for every
// index kind and shard count, routed window queries return exactly the
// unsharded result set, and the router's reported QueryStats reconcile
// with the sum of the per-shard metric deltas.
func TestRouterWindowEquivalence(t *testing.T) {
	segs := routerSample(t, 1100)
	for _, kind := range testKinds {
		truth := groundTruth(t, kind, segs)
		for _, shards := range shardCounts {
			r, err := Build(kind, segs, shards)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(kind)*100 + int64(shards)))
			// The router appends to dst and sorts only what it appended:
			// the prefix, out of order on purpose, must come back as is.
			prefix := []segdb.WindowHit{{ID: 5, Seg: segs[5]}, {ID: 1, Seg: segs[1]}}
			var buf []segdb.WindowHit
			for trial := 0; trial < 20; trial++ {
				side := int32(1) << uint(rng.Intn(15))
				x := int32(rng.Intn(segdb.WorldSize))
				y := int32(rng.Intn(segdb.WorldSize))
				rect := segdb.RectOf(x, y, min(x+side, segdb.WorldSize-1), min(y+side, segdb.WorldSize-1))
				want := sortedWindowIDs(t, truth, rect)

				p0, s0, n0 := sumShardMetrics(r)
				var st segdb.QueryStats
				buf, st, err = r.WindowAppendCtx(context.Background(), rect, append(buf[:0], prefix...))
				if err != nil {
					t.Fatal(err)
				}
				p1, s1, n1 := sumShardMetrics(r)
				if !slices.Equal(buf[:len(prefix)], prefix) {
					t.Fatalf("%v shards=%d: dst's prefix became %v", kind, shards, buf[:len(prefix)])
				}
				hits := buf[len(prefix):]
				got := make([]segdb.SegmentID, len(hits))
				for i, h := range hits {
					got[i] = h.ID
					if h.Seg != segs[h.ID] {
						t.Fatalf("%v shards=%d: hit %d geometry %v != segs[%d]=%v", kind, shards, i, h.Seg, h.ID, segs[h.ID])
					}
					if i > 0 && got[i-1] >= got[i] {
						t.Fatalf("%v shards=%d: hits not in ascending ID order", kind, shards)
					}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%v shards=%d window %v: router %d hits, unsharded %d", kind, shards, rect, len(got), len(want))
				}
				// Summed per-shard deltas must equal the router's stats on
				// the interleaving-independent counters.
				if st.PoolRequests != p1-p0 || st.SegComps != s1-s0 || st.NodeComps != n1-n0 {
					t.Fatalf("%v shards=%d: stats (req %d, seg %d, node %d) != shard deltas (req %d, seg %d, node %d)",
						kind, shards, st.PoolRequests, st.SegComps, st.NodeComps, p1-p0, s1-s0, n1-n0)
				}
			}
		}
	}
}

// TestRouterNearestKEquivalence checks the cross-shard k-NN merge: the
// routed distance sequence matches the unsharded one exactly (distance
// ties may legitimately reorder IDs, so IDs are compared as sets per
// distance), results arrive in ascending (distance, global ID) order,
// and every reported distance is the true geometry distance.
func TestRouterNearestKEquivalence(t *testing.T) {
	segs := routerSample(t, 1100)
	for _, kind := range testKinds {
		truth := groundTruth(t, kind, segs)
		for _, shards := range shardCounts {
			r, err := Build(kind, segs, shards)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(kind)*1000 + int64(shards)))
			for trial := 0; trial < 15; trial++ {
				p := segdb.Pt(int32(rng.Intn(segdb.WorldSize)), int32(rng.Intn(segdb.WorldSize)))
				k := []int{1, 3, 10}[trial%3]

				want, _, err := truth.NearestKAppendCtx(context.Background(), p, k, nil)
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := r.NearestKCtx(context.Background(), p, k)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("%v shards=%d k=%d: %d results, want %d", kind, shards, k, len(got), len(want))
				}
				for i, res := range got {
					if i > 0 && core.CompareNearest(got[i-1], res) > 0 {
						t.Fatalf("%v shards=%d: results not in (dist, id) order", kind, shards)
					}
					if res.DistSq != want[i].DistSq {
						t.Fatalf("%v shards=%d k=%d #%d: dist %v, unsharded %v", kind, shards, k, i, res.DistSq, want[i].DistSq)
					}
					if td := geom.DistSqPointSegment(p, segs[res.ID]); res.DistSq != td {
						t.Fatalf("%v shards=%d: reported dist %v != geometry dist %v", kind, shards, res.DistSq, td)
					}
					if res.Seg != segs[res.ID] {
						t.Fatalf("%v shards=%d: result geometry mismatch for %d", kind, shards, res.ID)
					}
				}
				// Where the kth distance is unique the ID sets must match
				// exactly (ties at the boundary are the only legitimate
				// divergence between traversal orders).
				if len(got) > 0 && countDist(want, want[len(want)-1].DistSq) == countDist(got, got[len(got)-1].DistSq) {
					a, b := idSet(got), idSet(want)
					if tiesUnique(want) && !slices.Equal(a, b) {
						t.Fatalf("%v shards=%d k=%d: ID sets differ: %v vs %v", kind, shards, k, a, b)
					}
				}
			}
		}
	}
}

func idSet(rs []segdb.NearestResult) []segdb.SegmentID {
	ids := make([]segdb.SegmentID, len(rs))
	for i, r := range rs {
		ids[i] = r.ID
	}
	slices.Sort(ids)
	return ids
}

func countDist(rs []segdb.NearestResult, d float64) int {
	n := 0
	for _, r := range rs {
		if r.DistSq == d {
			n++
		}
	}
	return n
}

// tiesUnique reports whether the last (kth) distance appears exactly
// once — when it does, the k-NN answer set is uniquely determined.
func tiesUnique(rs []segdb.NearestResult) bool {
	return len(rs) > 0 && countDist(rs, rs[len(rs)-1].DistSq) == 1
}

// TestRouterIncidentAt fans the incidence query across shard counts
// and compares against the unsharded answers.
func TestRouterIncidentAt(t *testing.T) {
	segs := routerSample(t, 1100)
	// A star of segments with one shared endpoint, reaching into every
	// quadrant: its incidence answer takes hits from several shards, out
	// of ID order, which the router must permute with their geometry.
	c := int32(segdb.WorldSize / 2)
	for i := int32(0); i < 16; i++ {
		d := 100 + 37*i
		segs = append(segs, segdb.Seg(c, c, c+d*(i%3-1), c+d*(i/3%3-1)|1))
	}
	kind := segdb.RStarTree
	truth := groundTruth(t, kind, segs)
	rng := rand.New(rand.NewSource(42))
	for _, shards := range shardCounts {
		r, err := Build(kind, segs, shards)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 12; trial++ {
			s := segs[rng.Intn(len(segs))]
			p := s.P1
			if trial%2 == 1 {
				p = s.P2
			}
			if trial == 0 {
				p = segdb.Pt(c, c)
			}
			var want, got []segdb.SegmentID
			if _, err := truth.IncidentAtCtx(context.Background(), p, func(id segdb.SegmentID, _ segdb.Segment) bool {
				want = append(want, id)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			slices.Sort(want)
			if _, err := r.IncidentAtCtx(context.Background(), p, func(id segdb.SegmentID, seg segdb.Segment) bool {
				if seg != segs[id] {
					t.Errorf("shards=%d incident %v: hit %d geometry %v != segs[%d]=%v", shards, p, id, seg, id, segs[id])
				}
				got = append(got, id)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("shards=%d incident %v: %v, want %v", shards, p, got, want)
			}
		}
	}
}

// TestRouterWindowBatch compares per-rectangle batch answers (ascending
// global IDs) and stats attribution against the unsharded truth, and
// checks that a visitor stop ends the batch after exactly one visit.
func TestRouterWindowBatch(t *testing.T) {
	segs := routerSample(t, 1100)
	truth := groundTruth(t, segdb.RStarTree, segs)
	rng := rand.New(rand.NewSource(7))
	rects := make([]segdb.Rect, 16)
	for i := range rects {
		side := int32(1) << uint(6+rng.Intn(8))
		x := int32(rng.Intn(segdb.WorldSize))
		y := int32(rng.Intn(segdb.WorldSize))
		rects[i] = segdb.RectOf(x, y, min(x+side, segdb.WorldSize-1), min(y+side, segdb.WorldSize-1))
	}
	for _, shards := range shardCounts {
		r, err := Build(segdb.RStarTree, segs, shards)
		if err != nil {
			t.Fatal(err)
		}
		got := make([][]segdb.SegmentID, len(rects))
		stats, err := r.WindowBatchCtx(context.Background(), rects, func(q int, id segdb.SegmentID, _ segdb.Segment) bool {
			got[q] = append(got[q], id)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(stats) != len(rects) {
			t.Fatalf("shards=%d: %d stats for %d rects", shards, len(stats), len(rects))
		}
		for q, rect := range rects {
			want := sortedWindowIDs(t, truth, rect)
			if !slices.Equal(got[q], want) {
				t.Fatalf("shards=%d rect %d: %d hits, want %d", shards, q, len(got[q]), len(want))
			}
			if len(want) > 0 && stats[q].SegComps == 0 {
				t.Fatalf("shards=%d rect %d: zero SegComps for nonempty answer", shards, q)
			}
		}
		calls := 0
		if _, err := r.WindowBatchCtx(context.Background(), rects, func(int, segdb.SegmentID, segdb.Segment) bool {
			calls++
			return false
		}); err != nil || calls != 1 {
			t.Fatalf("shards=%d: stopped batch made %d visits, err %v; want 1 visit, nil", shards, calls, err)
		}
	}
}

// TestRouterCancellation maps a canceled context to the canceled error
// code through the routed fan-out.
func TestRouterCancellation(t *testing.T) {
	segs := routerSample(t, 600)
	r, err := Build(segdb.RStarTree, segs, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, qerr := r.WindowAppendCtx(ctx, segdb.RectOf(0, 0, segdb.WorldSize-1, segdb.WorldSize-1), nil)
	if segdb.ErrorCode(qerr) != segdb.CodeCanceled {
		t.Fatalf("canceled window: code %v (err %v)", segdb.ErrorCode(qerr), qerr)
	}
	if _, _, qerr = r.NearestKCtx(ctx, segdb.Pt(100, 100), 5); segdb.ErrorCode(qerr) != segdb.CodeCanceled {
		t.Fatalf("canceled nearestk: code %v (err %v)", segdb.ErrorCode(qerr), qerr)
	}
}

// TestRouterProfile checks that routed queries fold into the
// router-level profile with the same kind names the DB uses.
func TestRouterProfile(t *testing.T) {
	segs := routerSample(t, 600)
	r, err := Build(segdb.RStarTree, segs, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, _, err := r.WindowAppendCtx(context.Background(), segdb.RectOf(0, 0, 4096, 4096), nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := r.NearestKCtx(context.Background(), segdb.Pt(8000, 8000), 3); err != nil {
		t.Fatal(err)
	}
	byKind := map[string]segdb.QueryKindProfile{}
	for _, q := range r.Profile().Queries {
		byKind[q.Kind] = q
	}
	if byKind["window"].Count != 5 || byKind["nearestk"].Count != 1 {
		t.Fatalf("router profile wrong: %+v", byKind)
	}
	if byKind["window"].LatencyMicros.Count != 5 {
		t.Fatalf("window latency histogram not recorded: %+v", byKind["window"])
	}
}
