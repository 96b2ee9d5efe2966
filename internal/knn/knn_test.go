package knn

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refQueue is container/heap over the same items: the reference whose
// pop order, ties included, Push and Pop must reproduce, because that
// order fixes every k-NN page access and disk-access count.
type refQueue []Item[int]

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].DistSq < q[j].DistSq }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(Item[int])) }
func (q *refQueue) Pop() any {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

// TestPopOrderMatchesContainerHeap interleaves random pushes and pops on
// both queues. Distances come from eight values so that ties dominate,
// and the payload is the push index, so the two pop sequences agree only
// if ties leave in the same order too.
func TestPopOrderMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var q []Item[int]
	ref := &refQueue{}
	pushes, pops := 0, 0
	pop := func() {
		got, want := Pop(&q), heap.Pop(ref).(Item[int])
		if got != want {
			t.Fatalf("pop %d: got %+v, container/heap %+v", pops, got, want)
		}
		pops++
	}
	for pushes < 20000 {
		if len(q) > 0 && rng.Intn(5) < 2 {
			pop()
			continue
		}
		d := float64(rng.Intn(8))
		Push(&q, d, pushes)
		heap.Push(ref, Item[int]{DistSq: d, V: pushes})
		pushes++
	}
	for len(q) > 0 {
		pop()
	}
	if ref.Len() != 0 {
		t.Fatalf("container/heap still holds %d items", ref.Len())
	}
}

func TestWarmPushPopAllocatesNothing(t *testing.T) {
	q := make([]Item[int], 0, 64)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			Push(&q, float64(i%8), i)
		}
		for len(q) > 0 {
			Pop(&q)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm push/pop cycle: %v allocations, want 0", allocs)
	}
}
