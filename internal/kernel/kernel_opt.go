//go:build !kernelref

package kernel

import "segdb/internal/geom"

// UsingRef reports whether the exported kernels are the scalar
// references (`-tags kernelref` builds). The bench regression gate skips
// itself when true — comparing the reference against itself is
// meaningless.
const UsingRef = false

// IntersectMask returns a bitmask with bit i set iff rect i of the lanes
// intersects q (closed-interval semantics, identical to
// geom.Rect.Intersects). At most LaneWidth entries are tested; callers
// with wider nodes chunk by LaneWidth.
func IntersectMask(xmin, ymin, xmax, ymax []int32, q geom.Rect) uint64 {
	return intersectMask(xmin, ymin, xmax, ymax, q)
}

// ContainsMask returns a bitmask with bit i set iff q fully contains
// rect i of the lanes (identical to geom.Rect.ContainsRect). At most
// LaneWidth entries are tested.
func ContainsMask(xmin, ymin, xmax, ymax []int32, q geom.Rect) uint64 {
	return containsMask(xmin, ymin, xmax, ymax, q)
}

// IntersectMaskPacked is IntersectMask over SWAR-packed entries (see
// PackRect): one guarded 64-bit subtract replaces the four per-entry
// compares. Bit-identical to IntersectMask/RefIntersectMask on the
// unpacked rectangles for any query rectangle, packable or not.
func IntersectMaskPacked(packed []uint64, q geom.Rect) uint64 {
	return intersectMaskPacked(packed, q)
}

// ContainsMaskPacked is ContainsMask over SWAR-packed entries.
func ContainsMaskPacked(packed []uint64, q geom.Rect) uint64 {
	return containsMaskPacked(packed, q)
}

// MinDistLB writes the squared minimum distance from p to each rect of
// the lanes into out (bit-equivalent to geom.Rect.DistSqToPoint); it is
// the k-NN lower-bound kernel. out must have at least len(xmin)
// elements.
func MinDistLB(xmin, ymin, xmax, ymax []int32, p geom.Point, out []float64) {
	minDistLB(xmin, ymin, xmax, ymax, p, out)
}

// ChooseSubtreeOverlap is the R*-tree's leaf-level ChooseSubtree over a
// node's coordinate lanes: it returns the index of the rectangle whose
// overlap with its siblings grows least when enlarged to cover r (ties:
// least area enlargement, then least area, then lowest index) and that
// rectangle's overlap enlargement. It is exact, the choice
// RefChooseSubtreeOverlap's all-pairs loop makes, but evaluates only the
// pairs it needs (see the write-path kernel notes in kernel.go). It
// charges nothing: the caller accounts len² bounding box computations,
// what Beckmann et al.'s algorithm specifies.
func ChooseSubtreeOverlap(xmin, ymin, xmax, ymax []int32, r geom.Rect) (int, int64) {
	return chooseSubtreeOverlap(xmin, ymin, xmax, ymax, r)
}
