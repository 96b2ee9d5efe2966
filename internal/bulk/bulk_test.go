package bulk

import (
	"math/rand"
	"slices"
	"testing"

	"segdb/internal/geom"
	"segdb/internal/seg"
)

// TestSortMatchesSequentialOracle checks SortByMorton against an oracle
// that computes every (MortonKey, ID) pair once, outside the comparator,
// over inputs whose midpoints tie heavily.
func TestSortMatchesSequentialOracle(t *testing.T) {
	for _, n := range []int{0, 1, 2, 100, 4095, 4096, 12305} {
		rng := rand.New(rand.NewSource(int64(n)))
		perm := rng.Perm(n)
		entries := make([]Entry, n)
		for i := range entries {
			// 50 distinct midpoints: each segment is a short horizontal
			// run centred on one of them, so the IDs break most ties.
			c := int32(rng.Intn(50)) * 300
			h := int32(rng.Intn(4))
			entries[i] = Entry{
				ID:  seg.ID(perm[i]),
				Seg: geom.Segment{P1: geom.Point{X: c - h, Y: c}, P2: geom.Point{X: c + h, Y: c}},
			}
		}
		type keyed struct {
			key uint64
			e   Entry
		}
		oracle := make([]keyed, n)
		for i, e := range entries {
			oracle[i] = keyed{MortonKey(e.Seg), e}
		}
		slices.SortFunc(oracle, func(a, b keyed) int {
			switch {
			case a.key < b.key:
				return -1
			case a.key > b.key:
				return 1
			case a.e.ID < b.e.ID:
				return -1
			case a.e.ID > b.e.ID:
				return 1
			}
			return 0
		})
		SortByMorton(entries)
		for i := range entries {
			if entries[i] != oracle[i].e {
				t.Fatalf("n=%d: position %d holds %v, oracle %v", n, i, entries[i], oracle[i].e)
			}
		}
	}
}
