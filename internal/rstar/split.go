package rstar

import (
	"cmp"
	"slices"

	"segdb/internal/rpage"
)

// splitOrders are the four sortings the R*-tree split considers: by
// lower then upper x, upper then lower x, and the same two on y.
var splitOrders = [4]func(a, b rpage.Entry) int{
	func(a, b rpage.Entry) int {
		return cmp.Or(cmp.Compare(a.Rect.Min.X, b.Rect.Min.X), cmp.Compare(a.Rect.Max.X, b.Rect.Max.X))
	},
	func(a, b rpage.Entry) int {
		return cmp.Or(cmp.Compare(a.Rect.Max.X, b.Rect.Max.X), cmp.Compare(a.Rect.Min.X, b.Rect.Min.X))
	},
	func(a, b rpage.Entry) int {
		return cmp.Or(cmp.Compare(a.Rect.Min.Y, b.Rect.Min.Y), cmp.Compare(a.Rect.Max.Y, b.Rect.Max.Y))
	},
	func(a, b rpage.Entry) int {
		return cmp.Or(cmp.Compare(a.Rect.Max.Y, b.Rect.Max.Y), cmp.Compare(a.Rect.Min.Y, b.Rect.Min.Y))
	},
}

// split distributes M+1 entries over two nodes using the R*-tree topology:
// first choose the split axis by minimizing the sum of perimeters over all
// candidate distributions, then choose the distribution on that axis with
// minimal overlap between the two groups (ties: minimal combined area).
// This is the "sum of the perimeters" rule described in §3 of Hoel &
// Samet. The sorts are stable, so entries with equal keys keep their page
// order and the groups are a function of the node's bytes alone. The
// returned groups alias the tree's split scratch and are valid until the
// next split.
func (t *Tree) split(entries []rpage.Entry) (left, right []rpage.Entry) {
	m := t.min
	var margin [4]int64
	for k, order := range splitOrders {
		s := append(t.w.sorted[k][:0], entries...)
		slices.SortStableFunc(s, order)
		t.w.sorted[k] = s
		margin[k] = t.marginSum(s, m)
	}
	// Sortings 0 and 1 are the x axis, 2 and 3 the y axis.
	axis := 0
	if margin[0]+margin[1] > margin[2]+margin[3] {
		axis = 2
	}

	bestOverlap, bestArea := int64(-1), int64(0)
	for _, s := range t.w.sorted[axis : axis+2] {
		t.groupMBRs(s)
		for cut := m; cut <= len(s)-m; cut++ {
			t.w.comps += 2
			r1, r2 := t.w.prefix[cut-1], t.w.suffix[cut]
			overlap := r1.OverlapArea(r2)
			area := r1.Area() + r2.Area()
			if bestOverlap < 0 || overlap < bestOverlap ||
				(overlap == bestOverlap && area < bestArea) {
				bestOverlap, bestArea = overlap, area
				left, right = s[:cut], s[cut:]
			}
		}
	}
	return left, right
}

// marginSum accumulates the perimeter sums over all legal distributions of
// one sorting, the quantity minimized when choosing the split axis.
func (t *Tree) marginSum(s []rpage.Entry, m int) int64 {
	t.groupMBRs(s)
	var sum int64
	for cut := m; cut <= len(s)-m; cut++ {
		t.w.comps += 2
		sum += t.w.prefix[cut-1].Perimeter() + t.w.suffix[cut].Perimeter()
	}
	return sum
}

// groupMBRs fills the scratch with prefix[i] = MBR(s[0..i]) and
// suffix[i] = MBR(s[i..]).
func (t *Tree) groupMBRs(s []rpage.Entry) {
	prefix := slices.Grow(t.w.prefix[:0], len(s))[:len(s)]
	suffix := slices.Grow(t.w.suffix[:0], len(s))[:len(s)]
	prefix[0] = s[0].Rect
	for i := 1; i < len(s); i++ {
		prefix[i] = prefix[i-1].Union(s[i].Rect)
	}
	suffix[len(s)-1] = s[len(s)-1].Rect
	for i := len(s) - 2; i >= 0; i-- {
		suffix[i] = suffix[i+1].Union(s[i].Rect)
	}
	t.w.prefix, t.w.suffix = prefix, suffix
}
