// Package knn is the priority queue of the nearest-line query: the
// incremental best-first ranking of Hoel & Samet [11], which every index
// kind runs over its own nodes, blocks or cells. Callers keep a Queue in
// pooled scratch, so its backing arrays carry over from one query to the
// next, and keep their payloads in a side slice that an Item's Slot
// indexes.
package knn

import "math"

// Item is one queue element: the squared distance the queue orders by (a
// lower bound for a node, block or cell, exact for a segment), the push
// number Ref that breaks ties, and the caller's payload index Slot.
type Item struct {
	DistSq    float64
	Ref, Slot uint32
}

// before is the queue's total order: distance, then push order. Refs are
// unique within a query, so no two items compare equal, and which item
// pops next depends only on the items queued, not on the heap's shape.
func before(a, b Item) bool {
	return a.DistSq < b.DistSq || a.DistSq == b.DistSq && a.Ref < b.Ref
}

// Queue is a binary min-heap on (DistSq, Ref) that queues only items that
// can still pop. A search stops once it has popped k exact items, and its
// exact items are the segments it answers with. The queue keeps the k
// least exact items it has admitted, each either popped already or still
// queued. Any item ordered after all k of them pops only after they have,
// when the search has stopped, so leaving it out changes no pop the
// search makes, and with it no page access or counter.
//
// An admitted exact item enters the heap only at the next Pop or Min, so
// one displaced from the k least by a later push in the same batch, such
// as the rest of an R-tree leaf, never enters it.
type Queue struct {
	items []Item
	// bound holds the k least exact items admitted as a min-heap of their
	// mirrors (-DistSq, ^Ref), so bound[0] mirrors the k-th least. kth is
	// that item once k are held; until then it lies at +Inf, after every
	// item (at -Inf, before every item, when k is 0).
	bound []Item
	kth   Item
	k     int
	next  uint32 // the next unreserved Ref
	// The bound's items from Ref settled on, pending of them, are not yet
	// in items.
	settled uint32
	pending int
}

// mirror reverses the order of before, turning the min-heap code into
// the bound's max-heap. It is its own inverse.
func mirror(it Item) Item { return Item{DistSq: -it.DistSq, Ref: ^it.Ref, Slot: it.Slot} }

// Reset empties q for a search that stops after k exact pops.
func (q *Queue) Reset(k int) {
	q.items, q.bound, q.k, q.next = q.items[:0], q.bound[:0], max(k, 0), 0
	q.settled, q.pending = 0, 0
	q.kth = Item{DistSq: math.Inf(1)}
	if q.k == 0 {
		q.kth.DistSq = math.Inf(-1)
	}
}

// Len returns the number of queued items.
func (q *Queue) Len() int { return len(q.items) + q.pending }

// Min returns the item Pop would return. q must not be empty.
func (q *Queue) Min() Item {
	q.settle()
	return q.items[0]
}

// Reserve takes n consecutive push numbers and returns the first. A caller
// that stands one item in for n siblings, such as an R-tree node's
// children, reserves theirs at once, so each sibling orders where it
// would had all n been pushed then.
func (q *Queue) Reserve(n int) uint32 {
	ref := q.next
	q.next += uint32(n)
	return ref
}

// PushBound queues a lower bound d under the reserved push number ref,
// unless it orders after the k least exact items admitted and so can
// never pop. It reports whether the item was queued.
func (q *Queue) PushBound(d float64, ref, slot uint32) bool {
	it := Item{DistSq: d, Ref: ref, Slot: slot}
	if !before(it, q.kth) {
		return false
	}
	q.push(it)
	return true
}

// PushExact queues an exact distance d under the next push number if it is
// among the k least exact distances admitted, and reports whether it was
// queued. A fresh push number orders after every admitted item, so only a
// distance below the k-th is admitted once k are held. An item queued
// here and displaced before the next Pop or Min never reaches the heap,
// but its slot stays taken.
func (q *Queue) PushExact(d float64, slot uint32) bool {
	q.next++
	if !(d < q.kth.DistSq) {
		return false
	}
	q.admit(d, slot)
	return true
}

// admit adds an exact item under the last push number to the bound, which
// drops its k-th least when full, and leaves it pending.
func (q *Queue) admit(d float64, slot uint32) {
	it := Item{DistSq: d, Ref: q.next - 1, Slot: slot}
	if len(q.bound) < q.k {
		q.bound = append(q.bound, mirror(it))
		up(q.bound, len(q.bound)-1)
	} else {
		if q.kth.Ref >= q.settled {
			q.pending-- // displaced before it reached the heap
		}
		q.bound[0] = mirror(it)
		down(q.bound, 0, len(q.bound))
	}
	q.pending++
	if len(q.bound) == q.k {
		q.kth = mirror(q.bound[0])
	}
}

// settle moves the pending exact items into the heap.
func (q *Queue) settle() {
	if q.pending == 0 {
		return
	}
	for _, b := range q.bound {
		if it := mirror(b); it.Ref >= q.settled {
			q.push(it)
		}
	}
	q.settled, q.pending = q.next, 0
}

func (q *Queue) push(it Item) {
	q.items = append(q.items, it)
	up(q.items, len(q.items)-1)
}

// Pop removes and returns the least item. q must not be empty.
func (q *Queue) Pop() Item {
	q.settle()
	h := q.items
	n := len(h) - 1
	it := h[0]
	h[0] = h[n]
	down(h, 0, n)
	q.items = h[:n]
	return it
}

// up and down restore the min-heap property of h under before, moving the
// displaced item once instead of swapping at every level.
func up(h []Item, j int) {
	it := h[j]
	for j > 0 {
		i := (j - 1) / 2
		if !before(it, h[i]) {
			break
		}
		h[j] = h[i]
		j = i
	}
	h[j] = it
}

func down(h []Item, i, n int) {
	it := h[i]
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && before(h[j2], h[j]) {
			j = j2
		}
		if !before(h[j], it) {
			break
		}
		h[i] = h[j]
		i = j
	}
	h[i] = it
}
