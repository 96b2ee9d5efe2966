package rstar

import (
	"slices"

	"segdb/internal/rpage"
)

// quadraticSplit implements Guttman's quadratic split (SIGMOD 1984), used
// by the classic R-tree variant: pick the two entries whose combined
// bounding rectangle wastes the most area as seeds, then assign the rest
// one at a time to the group whose covering rectangle grows least,
// preferring the entry with the greatest preference difference. The
// returned groups alias the tree's split scratch and are valid until the
// next split.
func (t *Tree) quadraticSplit(entries []rpage.Entry) (left, right []rpage.Entry) {
	m := t.min
	// PickSeeds: maximize the dead area of the pair's bounding rectangle.
	si, sj := 0, 1
	worst := int64(-1)
	for i := 0; i < len(entries); i++ {
		for j := i + 1; j < len(entries); j++ {
			t.w.o.NodeComps(1)
			d := entries[i].Rect.Union(entries[j].Rect).Area() -
				entries[i].Rect.Area() - entries[j].Rect.Area()
			if d > worst {
				worst, si, sj = d, i, j
			}
		}
	}
	// Each group, and the entries still unassigned, fit in len(entries):
	// sized up front, the appends below never leave the scratch buffers.
	for k := range t.w.sorted[:3] {
		t.w.sorted[k] = slices.Grow(t.w.sorted[k][:0], len(entries))
	}
	left = append(t.w.sorted[0], entries[si])
	right = append(t.w.sorted[1], entries[sj])
	lbb, rbb := entries[si].Rect, entries[sj].Rect

	remaining := t.w.sorted[2]
	for i, e := range entries {
		if i != si && i != sj {
			remaining = append(remaining, e)
		}
	}
	for len(remaining) > 0 {
		// If one group needs every remaining entry to reach the minimum
		// fill, hand them over.
		if len(left)+len(remaining) == m {
			left = append(left, remaining...)
			return left, right
		}
		if len(right)+len(remaining) == m {
			right = append(right, remaining...)
			return left, right
		}
		// PickNext: the entry with the greatest difference between its
		// enlargements of the two groups.
		best, bestDiff := 0, int64(-1)
		var bestDL, bestDR int64
		for i, e := range remaining {
			t.w.o.NodeComps(2)
			dl := lbb.Enlargement(e.Rect)
			dr := rbb.Enlargement(e.Rect)
			diff := dl - dr
			if diff < 0 {
				diff = -diff
			}
			if diff > bestDiff {
				best, bestDiff, bestDL, bestDR = i, diff, dl, dr
			}
		}
		e := remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)
		// Assign to the group with the smaller enlargement; break ties by
		// smaller area, then fewer entries.
		toLeft := bestDL < bestDR
		if bestDL == bestDR {
			la, ra := lbb.Area(), rbb.Area()
			toLeft = la < ra || (la == ra && len(left) <= len(right))
		}
		if toLeft {
			left = append(left, e)
			lbb = lbb.Union(e.Rect)
		} else {
			right = append(right, e)
			rbb = rbb.Union(e.Rect)
		}
	}
	return left, right
}
