package segdb

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"segdb/internal/geom"
)

// TestNearestKTiesMatchScan queries the nearest-line search where exact
// ties are the rule: at road junctions of the Charles map, where two to
// four segments share an endpoint and lie at distance exactly 0. Random
// points almost never tie, so this is where the queue's tie order shows.
// For every kind × page compression 0/1 and k ∈ {1, 2, 5, 17}, the answer's
// distance sequence must equal a brute-force scan's, each answer must be
// a distinct stored segment at its stated distance, and the IDs strictly
// below the k-th distance must be exactly the scan's.
func TestNearestKTiesMatchScan(t *testing.T) {
	m, err := GenerateCounty("Charles")
	if err != nil {
		t.Fatal(err)
	}
	degree := make(map[Point]int)
	for _, s := range m.Segments {
		degree[s.P1]++
		degree[s.P2]++
	}
	rng := rand.New(rand.NewSource(37))
	var pts []Point
	for len(pts) < 24 {
		s := m.Segments[rng.Intn(len(m.Segments))]
		if p := s.P1; degree[p] >= 2 {
			pts = append(pts, p)
		}
	}

	// The scan: every segment's distance, ascending, per point. Segment i
	// of the map gets ID i from AddBatch.
	type cand struct {
		d  float64
		id SegmentID
	}
	scans := make([][]cand, len(pts))
	for i, p := range pts {
		c := make([]cand, len(m.Segments))
		for j, s := range m.Segments {
			c[j] = cand{geom.DistSqPointSegment(p, s), SegmentID(j)}
		}
		slices.SortFunc(c, func(a, b cand) int { return cmp.Compare(a.d, b.d) })
		if c[1].d != c[0].d {
			t.Fatalf("point %v: the junction does not tie (%v, %v)", p, c[0].d, c[1].d)
		}
		scans[i] = c
	}

	ctx := context.Background()
	for _, kind := range allKinds() {
		for _, level := range []int{0, 1} {
			t.Run(fmt.Sprintf("%v/level%d", kind, level), func(t *testing.T) {
				db, err := Open(kind, WithPageCompression(level))
				if err != nil {
					t.Fatal(err)
				}
				ids, err := db.AddBatch(m.Segments)
				if err != nil {
					t.Fatal(err)
				}
				for j, id := range ids {
					if id != SegmentID(j) {
						t.Fatalf("AddBatch gave segment %d ID %d", j, id)
					}
				}
				var got []NearestResult
				for i, p := range pts {
					scan := scans[i]
					for _, k := range []int{1, 2, 5, 17} {
						got, _, err = db.NearestKAppendCtx(ctx, p, k, got[:0])
						if err != nil {
							t.Fatal(err)
						}
						if len(got) != k {
							t.Fatalf("%v k=%d: %d answers", p, k, len(got))
						}
						seen := make(map[SegmentID]bool)
						for r, g := range got {
							if g.DistSq != scan[r].d {
								t.Fatalf("%v k=%d: answer %d at %v, scan has %v", p, k, r, g.DistSq, scan[r].d)
							}
							s := m.Segments[g.ID]
							if seen[g.ID] || g.Seg != s || geom.DistSqPointSegment(p, s) != g.DistSq {
								t.Fatalf("%v k=%d: answer %d is %+v: duplicate, or not segment %d at its distance", p, k, r, g, g.ID)
							}
							seen[g.ID] = true
						}
						kth := scan[k-1].d
						for _, c := range scan {
							if c.d >= kth {
								break
							}
							if !seen[c.id] {
								t.Fatalf("%v k=%d: segment %d at %v < the k-th distance %v is missing", p, k, c.id, c.d, kth)
							}
						}
					}
				}
			})
		}
	}
}
