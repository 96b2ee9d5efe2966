//go:build kernelref

package kernel

import "segdb/internal/geom"

// kernelref builds swap the exported kernels for the scalar references,
// so `go test -tags kernelref ./...` runs the entire suite — traversals,
// stats accounting, equivalence properties — against the reference
// implementations.

// UsingRef reports that this build serves the scalar references as the
// exported kernels.
const UsingRef = true

// IntersectMask is RefIntersectMask under the kernelref tag.
func IntersectMask(xmin, ymin, xmax, ymax []int32, q geom.Rect) uint64 {
	return RefIntersectMask(xmin, ymin, xmax, ymax, q)
}

// ContainsMask is RefContainsMask under the kernelref tag.
func ContainsMask(xmin, ymin, xmax, ymax []int32, q geom.Rect) uint64 {
	return RefContainsMask(xmin, ymin, xmax, ymax, q)
}

// IntersectMaskPacked is RefIntersectMaskPacked under the kernelref tag.
func IntersectMaskPacked(packed []uint64, q geom.Rect) uint64 {
	return RefIntersectMaskPacked(packed, q)
}

// ContainsMaskPacked is RefContainsMaskPacked under the kernelref tag.
func ContainsMaskPacked(packed []uint64, q geom.Rect) uint64 {
	return RefContainsMaskPacked(packed, q)
}

// MinDistLB is RefMinDistLB under the kernelref tag.
func MinDistLB(xmin, ymin, xmax, ymax []int32, p geom.Point, out []float64) {
	RefMinDistLB(xmin, ymin, xmax, ymax, p, out)
}

// ChooseSubtreeOverlap is RefChooseSubtreeOverlap under the kernelref
// tag.
func ChooseSubtreeOverlap(xmin, ymin, xmax, ymax []int32, r geom.Rect) (int, int64) {
	return RefChooseSubtreeOverlap(xmin, ymin, xmax, ymax, r)
}
