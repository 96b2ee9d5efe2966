// Package knn is the priority queue of the nearest-line query: the
// incremental best-first ranking of Hoel & Samet [11], which every index
// kind runs over its own nodes, blocks or cells. Callers keep the queue in
// a local slice and pass its address, so a pooled backing array carries
// over from one query to the next.
package knn

// Item is one queue element: the squared distance the queue orders by (a
// lower bound for a node, block or cell, exact for a segment) and the
// caller's payload.
type Item[T any] struct {
	DistSq float64
	V      T
}

// The queue is a binary min-heap on DistSq rather than container/heap:
// that package's interface methods box every item pushed or popped, an
// allocation per queue operation on the nearest-neighbor hot path. The
// sift routines mirror container/heap's exactly, so the pop order among
// equal distances, which depends only on push history, is the one
// container/heap gives, and with it every page access and disk-access
// count.

// Push adds an item to q. It stays an append and a call, so that it
// inlines even into search loops large enough to exhaust the compiler's
// inlining budget.
func Push[T any](q *[]Item[T], d float64, v T) {
	*q = append(*q, Item[T]{DistSq: d, V: v})
	up(*q, len(*q)-1)
}

// Pop removes and returns the item of least DistSq. q must not be empty.
func Pop[T any](q *[]Item[T]) Item[T] {
	old := *q
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	down(old, 0, n)
	it := old[n]
	*q = old[:n]
	return it
}

func up[T any](q []Item[T], j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !(q[j].DistSq < q[i].DistSq) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func down[T any](q []Item[T], i, n int) {
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q[j2].DistSq < q[j].DistSq {
			j = j2
		}
		if !(q[j].DistSq < q[i].DistSq) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
}
