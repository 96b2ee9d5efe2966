package seg

import "sync"

// seenPool recycles the per-query duplicate-suppression sets of the
// structures that store a segment more than once (the R+-tree and
// k-d-B-tree in every leaf it crosses, the PMR quadtree and the uniform
// grid in every block or cell), so a warm query allocates no set.
var seenPool = sync.Pool{New: func() any { return make(map[ID]struct{}) }}

// AcquireSeen returns an empty set of segment ids from the pool.
func AcquireSeen() map[ID]struct{} { return seenPool.Get().(map[ID]struct{}) }

// ReleaseSeen clears m and returns it to the pool.
func ReleaseSeen(m map[ID]struct{}) {
	clear(m)
	seenPool.Put(m)
}
