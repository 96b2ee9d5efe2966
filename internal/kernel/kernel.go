// Package kernel provides the branch-free struct-of-arrays compare
// kernels of the query hot paths.
//
// Following the SIMD-ified R-tree query processing literature, a node's
// rectangles are held as coordinate lanes (xmin[], ymin[], xmax[],
// ymax[]) rather than an array of entry structs, and the per-entry
// rect-versus-window tests become straight-line compare loops over the
// lanes: no branches in the loop body, bounds checks hoisted, results
// packed into a bitmask. The loops are written so the Go compiler emits
// flag-materializing instructions (SETcc/CSET) instead of branches,
// which removes the branch-misprediction cost of the old array-of-
// entries loop on mixed hit/miss nodes even without explicit vector
// instructions.
//
// Every exported kernel has a plain scalar reference implementation
// (Ref*) that is always compiled; the tests assert bit-equivalence
// between the two on randomized lanes, and building the module with
// `-tags kernelref` swaps the exported kernels for the references so the
// whole test suite can be run against the scalar forms.
package kernel

import (
	"math"

	"segdb/internal/geom"
)

// LaneWidth is the number of entries a single mask kernel call covers:
// one bit of the returned uint64 per entry.
const LaneWidth = 64

// b2u returns 1 for true and 0 for false. The compiler lowers this to a
// flag-materializing instruction, keeping the kernels' loop bodies
// branch-free.
func b2u(b bool) uint64 {
	var x uint64
	if b {
		x = 1
	}
	return x
}

// intersectMask is the shared implementation behind IntersectMask (and,
// under the kernelref tag, the guts the reference build replaces).
func intersectMask(xmin, ymin, xmax, ymax []int32, q geom.Rect) uint64 {
	n := len(xmin)
	if n > LaneWidth {
		n = LaneWidth
	}
	if n == 0 {
		return 0
	}
	// One explicit check per lane eliminates the per-iteration bounds
	// checks inside the loop.
	xmn, ymn := xmin[:n], ymin[:n]
	xmx, ymx := xmax[:n], ymax[:n]
	qminX, qminY := q.Min.X, q.Min.Y
	qmaxX, qmaxY := q.Max.X, q.Max.Y
	var m uint64
	for i := 0; i < n; i++ {
		hit := b2u(xmn[i] <= qmaxX) & b2u(qminX <= xmx[i]) &
			b2u(ymn[i] <= qmaxY) & b2u(qminY <= ymx[i])
		m |= hit << uint(i)
	}
	return m
}

// containsMask is the shared implementation behind ContainsMask.
func containsMask(xmin, ymin, xmax, ymax []int32, q geom.Rect) uint64 {
	n := len(xmin)
	if n > LaneWidth {
		n = LaneWidth
	}
	if n == 0 {
		return 0
	}
	xmn, ymn := xmin[:n], ymin[:n]
	xmx, ymx := xmax[:n], ymax[:n]
	qminX, qminY := q.Min.X, q.Min.Y
	qmaxX, qmaxY := q.Max.X, q.Max.Y
	var m uint64
	for i := 0; i < n; i++ {
		in := b2u(xmn[i] >= qminX) & b2u(xmx[i] <= qmaxX) &
			b2u(ymn[i] >= qminY) & b2u(ymx[i] <= qmaxY)
		m |= in << uint(i)
	}
	return m
}

// SWAR packed-lane kernels.
//
// The world grid is 14 bits per coordinate, so a whole rectangle packs
// into one uint64 of four 16-bit fields with a guard bit of headroom:
//
//	P = xmin | ymin<<16 | (C-xmax)<<32 | (C-ymax)<<48, C = PackCoordMax
//
// Rect-vs-window intersection is then four independent field-wise
// "P_f <= Q_f" tests, evaluated simultaneously by one guarded subtract
// (SIMD within a register): D = (Q|H) - P leaves field f's guard bit
// set iff P_f <= Q_f, and fields cannot borrow into each other because
// every field value is below the guard bit. One 8-byte load, a
// subtract, a mask, and a compare per entry — about a third of the
// per-lane compare kernel's work and half its memory traffic.

const (
	// PackCoordMax is the largest coordinate value the packed kernels
	// accept: the world grid's maximum (14 bits). Rectangles outside
	// [0, PackCoordMax] on any coordinate cannot be packed; decoders
	// fall back to the int32-lane kernels for such nodes, so packed and
	// unpacked paths agree on every input.
	PackCoordMax = 1<<14 - 1

	// packH holds each field's guard bit.
	packH = uint64(0x8000_8000_8000_8000)
)

// PackRect packs a rectangle into the SWAR entry form, reporting false
// when a coordinate falls outside [0, PackCoordMax].
func PackRect(xmin, ymin, xmax, ymax int32) (uint64, bool) {
	if uint32(xmin) > PackCoordMax || uint32(ymin) > PackCoordMax ||
		uint32(xmax) > PackCoordMax || uint32(ymax) > PackCoordMax {
		return 0, false
	}
	return uint64(uint32(xmin)) | uint64(uint32(ymin))<<16 |
		uint64(PackCoordMax-uint32(xmax))<<32 | uint64(PackCoordMax-uint32(ymax))<<48, true
}

// UnpackRect inverts PackRect.
func UnpackRect(p uint64) geom.Rect {
	return geom.Rect{
		Min: geom.Point{X: int32(p & 0xffff), Y: int32(p >> 16 & 0xffff)},
		Max: geom.Point{X: PackCoordMax - int32(p>>32&0xffff), Y: PackCoordMax - int32(p>>48&0xffff)},
	}
}

// clampPack saturates a query coordinate into the packed domain. Callers
// handle the always-empty cases before clamping, so saturation is exact:
// a coordinate below 0 or above PackCoordMax compares identically to the
// clamped value against every in-domain entry coordinate.
func clampPack(v int32) uint64 {
	if v < 0 {
		return 0
	}
	if v > PackCoordMax {
		return PackCoordMax
	}
	return uint64(uint32(v))
}

// packEmptyQuery reports whether q can match no in-domain rectangle at
// all — for intersection (q entirely outside the domain) and containment
// (q's lower bound above the domain or upper bound below it) alike.
func packEmptyQuery(q geom.Rect) bool {
	return q.Max.X < 0 || q.Max.Y < 0 || q.Min.X > PackCoordMax || q.Min.Y > PackCoordMax
}

// intersectMaskPacked is the shared implementation behind
// IntersectMaskPacked.
func intersectMaskPacked(packed []uint64, q geom.Rect) uint64 {
	n := len(packed)
	if n > LaneWidth {
		n = LaneWidth
	}
	if n == 0 || packEmptyQuery(q) {
		return 0
	}
	// Field order mirrors PackRect: P_f <= Q_f per field encodes
	// xmin<=q.Max.X, ymin<=q.Max.Y, xmax>=q.Min.X, ymax>=q.Min.Y.
	qh := clampPack(q.Max.X) | clampPack(q.Max.Y)<<16 |
		(PackCoordMax-clampPack(q.Min.X))<<32 | (PackCoordMax-clampPack(q.Min.Y))<<48 | packH
	pk := packed[:n]
	var m uint64
	for i := 0; i < n; i++ {
		d := qh - pk[i]
		m |= b2u(d&packH == packH) << uint(i)
	}
	return m
}

// containsMaskPacked is the shared implementation behind
// ContainsMaskPacked.
func containsMaskPacked(packed []uint64, q geom.Rect) uint64 {
	n := len(packed)
	if n > LaneWidth {
		n = LaneWidth
	}
	if n == 0 || packEmptyQuery(q) {
		return 0
	}
	// Containment flips the comparison direction: P_f >= Q_f per field
	// encodes xmin>=q.Min.X, ymin>=q.Min.Y, xmax<=q.Max.X, ymax<=q.Max.Y.
	qw := clampPack(q.Min.X) | clampPack(q.Min.Y)<<16 |
		(PackCoordMax-clampPack(q.Max.X))<<32 | (PackCoordMax-clampPack(q.Max.Y))<<48
	pk := packed[:n]
	var m uint64
	for i := 0; i < n; i++ {
		d := (pk[i] | packH) - qw
		m |= b2u(d&packH == packH) << uint(i)
	}
	return m
}

// minDistLB is the shared implementation behind MinDistLB. The axis
// distances are computed with integer max (coordinates fit the world
// grid, so the differences cannot overflow) and converted once, matching
// geom.Rect.DistSqToPoint bit for bit.
func minDistLB(xmin, ymin, xmax, ymax []int32, p geom.Point, out []float64) {
	n := len(xmin)
	if n == 0 {
		return
	}
	xmn, ymn := xmin[:n], ymin[:n]
	xmx, ymx := xmax[:n], ymax[:n]
	dst := out[:n]
	px, py := p.X, p.Y
	for i := 0; i < n; i++ {
		dx := float64(max(xmn[i]-px, px-xmx[i], 0))
		dy := float64(max(ymn[i]-py, py-ymx[i], 0))
		dst[i] = dx*dx + dy*dy
	}
}

// Write-path kernel: the R*-tree's leaf-level ChooseSubtree.
//
// Beckmann et al. pick, among a node's M children, the one whose
// rectangle needs the least overlap enlargement to take the new
// rectangle r: for candidate i with rectangle e_i and enlarged rectangle
// E_i = e_i ∪ r,
//
//	Δoverlap_i = Σ_{j≠i} area(E_i ∩ e_j) − area(e_i ∩ e_j)
//
// ties falling to the least area enlargement, then the least area, then
// the lowest index. In full that is the O(M²) work Hoel & Samet's Table 1
// charges the R*-tree for; the kernel makes the same choice by branch and
// bound. Every term is ≥ 0 (E_i ⊇ e_i, so each clipped extent of
// E_i ∩ e_j is at least that of e_i ∩ e_j), so a partial sum only grows.
// One O(M) pass seeds the search with the child least in (area
// enlargement, area, index) and sums its Δ in full. A seed with Δ = 0 is
// the answer: any other child with Δ = 0 loses the tie-break to it.
// Otherwise every other child sums its terms and stops, at each group of
// eight lanes, once the sum reaches the best Δ so far (best Δ + 1 if the
// child wins the tie-break against the best), since it can no longer win.
//
// An overlap area is max(w,0)·max(h,0) of the clipped extents, which
// equals geom.Rect.OverlapArea bit for bit (a disjoint or edge-touching
// pair has w or h ≤ 0 on some axis). The sums run over all M lanes: the
// j == i term needs no skip because it is 0 (e_i ⊆ E_i, so both of its
// areas are area(e_i)).

// chooseSubtreeOverlap is the shared implementation behind
// ChooseSubtreeOverlap.
func chooseSubtreeOverlap(xmin, ymin, xmax, ymax []int32, r geom.Rect) (int, int64) {
	n := len(xmin)
	if n == 0 {
		return 0, 0
	}
	xmn, ymn := xmin[:n], ymin[:n]
	xmx, ymx := xmax[:n], ymax[:n]
	rx0, ry0, rx1, ry1 := int64(r.Min.X), int64(r.Min.Y), int64(r.Max.X), int64(r.Max.Y)
	// enlargeArea returns child i's area enlargement and area.
	enlargeArea := func(i int) (int64, int64) {
		ex0, ey0, ex1, ey1 := int64(xmn[i]), int64(ymn[i]), int64(xmx[i]), int64(ymx[i])
		area := (ex1 - ex0) * (ey1 - ey0)
		return (max(ex1, rx1)-min(ex0, rx0))*(max(ey1, ry1)-min(ey0, ry0)) - area, area
	}
	seed := 0
	bestEnlarge, bestArea := enlargeArea(0)
	for i := 1; i < n; i++ {
		if enlarge, area := enlargeArea(i); enlarge < bestEnlarge || (enlarge == bestEnlarge && area < bestArea) {
			seed, bestEnlarge, bestArea = i, enlarge, area
		}
	}
	best, bestOverlap := seed, deltaOverlap(xmn, ymn, xmx, ymx, seed, r, math.MaxInt64)
	if bestOverlap == 0 {
		return best, 0
	}
	for i := 0; i < n; i++ {
		if i == seed {
			continue
		}
		enlarge, area := enlargeArea(i)
		limit := bestOverlap
		if enlarge < bestEnlarge || (enlarge == bestEnlarge && (area < bestArea || (area == bestArea && i < best))) {
			limit++ // i wins a tie on Δoverlap
		}
		if d := deltaOverlap(xmn, ymn, xmx, ymx, i, r, limit); d < limit {
			best, bestOverlap, bestEnlarge, bestArea = i, d, enlarge, area
		}
	}
	return best, bestOverlap
}

// deltaOverlap returns lane i's Δoverlap for r, or, once a partial sum
// checked after every eight lanes reaches limit, that partial sum. It is
// kept out of line so the pair loop has the registers to itself.
//
//go:noinline
func deltaOverlap(xmn, ymn, xmx, ymx []int32, i int, r geom.Rect, limit int64) int64 {
	n := len(xmn)
	ymn, xmx, ymx = ymn[:n], xmx[:n], ymx[:n]
	ex0, ey0, ex1, ey1 := int64(xmn[i]), int64(ymn[i]), int64(xmx[i]), int64(ymx[i])
	x0, y0 := min(ex0, int64(r.Min.X)), min(ey0, int64(r.Min.Y))
	x1, y1 := max(ex1, int64(r.Max.X)), max(ey1, int64(r.Max.Y))
	var acc int64
	for j0 := 0; j0 < n && acc < limit; j0 += 8 {
		for j := j0; j < min(j0+8, n); j++ {
			lx, ly, hx, hy := int64(xmn[j]), int64(ymn[j]), int64(xmx[j]), int64(ymx[j])
			w, h := min(x1, hx)-max(x0, lx), min(y1, hy)-max(y0, ly)
			ew, eh := min(ex1, hx)-max(ex0, lx), min(ey1, hy)-max(ey0, ly)
			acc += max(w, 0)*max(h, 0) - max(ew, 0)*max(eh, 0)
		}
	}
	return acc
}
