package rstar

import (
	"sort"

	"segdb/internal/geom"
	"segdb/internal/rpage"
)

// split distributes M+1 entries over two nodes using the R*-tree topology:
// first choose the split axis by minimizing the sum of perimeters over all
// candidate distributions, then choose the distribution on that axis with
// minimal overlap between the two groups (ties: minimal combined area).
// This is the "sum of the perimeters" rule described in §3 of Hoel &
// Samet.
func (t *Tree) split(entries []rpage.Entry) (left, right []rpage.Entry) {
	m := t.min
	byXMin := sortedBy(entries, func(a, b rpage.Entry) bool {
		return a.Rect.Min.X < b.Rect.Min.X || (a.Rect.Min.X == b.Rect.Min.X && a.Rect.Max.X < b.Rect.Max.X)
	})
	byXMax := sortedBy(entries, func(a, b rpage.Entry) bool {
		return a.Rect.Max.X < b.Rect.Max.X || (a.Rect.Max.X == b.Rect.Max.X && a.Rect.Min.X < b.Rect.Min.X)
	})
	byYMin := sortedBy(entries, func(a, b rpage.Entry) bool {
		return a.Rect.Min.Y < b.Rect.Min.Y || (a.Rect.Min.Y == b.Rect.Min.Y && a.Rect.Max.Y < b.Rect.Max.Y)
	})
	byYMax := sortedBy(entries, func(a, b rpage.Entry) bool {
		return a.Rect.Max.Y < b.Rect.Max.Y || (a.Rect.Max.Y == b.Rect.Max.Y && a.Rect.Min.Y < b.Rect.Min.Y)
	})

	xMargin := t.marginSum(byXMin, m) + t.marginSum(byXMax, m)
	yMargin := t.marginSum(byYMin, m) + t.marginSum(byYMax, m)

	var sortings [][]rpage.Entry
	if xMargin <= yMargin {
		sortings = [][]rpage.Entry{byXMin, byXMax}
	} else {
		sortings = [][]rpage.Entry{byYMin, byYMax}
	}

	bestOverlap, bestArea := int64(-1), int64(0)
	for _, s := range sortings {
		prefix, suffix := groupMBRs(s)
		for cut := m; cut <= len(s)-m; cut++ {
			t.Comps.Add(2)
			r1, r2 := prefix[cut-1], suffix[cut]
			overlap := r1.OverlapArea(r2)
			area := r1.Area() + r2.Area()
			if bestOverlap < 0 || overlap < bestOverlap ||
				(overlap == bestOverlap && area < bestArea) {
				bestOverlap, bestArea = overlap, area
				left = append(left[:0], s[:cut]...)
				right = append(right[:0], s[cut:]...)
			}
		}
	}
	return left, right
}

// marginSum accumulates the perimeter sums over all legal distributions of
// one sorting, the quantity minimized when choosing the split axis.
func (t *Tree) marginSum(s []rpage.Entry, m int) int64 {
	prefix, suffix := groupMBRs(s)
	var sum int64
	for cut := m; cut <= len(s)-m; cut++ {
		t.Comps.Add(2)
		sum += prefix[cut-1].Perimeter() + suffix[cut].Perimeter()
	}
	return sum
}

// groupMBRs returns prefix[i] = MBR(s[0..i]) and suffix[i] = MBR(s[i..]).
func groupMBRs(s []rpage.Entry) (prefix, suffix []geom.Rect) {
	prefix = make([]geom.Rect, len(s))
	suffix = make([]geom.Rect, len(s))
	prefix[0] = s[0].Rect
	for i := 1; i < len(s); i++ {
		prefix[i] = prefix[i-1].Union(s[i].Rect)
	}
	suffix[len(s)-1] = s[len(s)-1].Rect
	for i := len(s) - 2; i >= 0; i-- {
		suffix[i] = suffix[i+1].Union(s[i].Rect)
	}
	return prefix, suffix
}

func sortedBy(entries []rpage.Entry, less func(a, b rpage.Entry) bool) []rpage.Entry {
	out := append([]rpage.Entry(nil), entries...)
	sort.SliceStable(out, func(i, j int) bool { return less(out[i], out[j]) })
	return out
}

// sortSlice is a tiny generic sort helper (kept local to avoid pulling in
// a dependency on x/exp).
func sortSlice[T any](s []T, less func(a, b T) bool) {
	sort.SliceStable(s, func(i, j int) bool { return less(s[i], s[j]) })
}
