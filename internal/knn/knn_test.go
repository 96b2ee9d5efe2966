package knn

import (
	"math/rand"
	"slices"
	"testing"
)

// unbounded is a k no test run reaches: the queue then admits every exact
// item, which makes it a plain heap on (DistSq, Ref).
const unbounded = 1 << 30

// TestPopOrderIsDistanceThenPushOrder interleaves random pushes and pops.
// Distances come from eight values so that ties dominate, and the oracle
// is the queued set sorted by (DistSq, Ref): the pop sequences agree only
// if ties leave in push order.
func TestPopOrderIsDistanceThenPushOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var q Queue
	q.Reset(unbounded)
	var ref []Item
	pops := 0
	pop := func() {
		i := 0
		for j := range ref {
			if ref[j].DistSq < ref[i].DistSq || ref[j].DistSq == ref[i].DistSq && ref[j].Ref < ref[i].Ref {
				i = j
			}
		}
		want := ref[i]
		ref = slices.Delete(ref, i, i+1)
		if got := q.Pop(); got != want {
			t.Fatalf("pop %d: got %+v, want %+v", pops, got, want)
		}
		pops++
	}
	for pushes := 0; pushes < 20000; pushes++ {
		for q.Len() > 0 && rng.Intn(5) < 2 {
			pop()
		}
		d := float64(rng.Intn(8))
		slot := uint32(pushes)
		if rng.Intn(2) == 0 {
			q.PushExact(d, slot)
			ref = append(ref, Item{DistSq: d, Ref: uint32(pushes), Slot: slot})
			continue
		}
		r := q.Reserve(1)
		q.PushBound(d, r, slot)
		ref = append(ref, Item{DistSq: d, Ref: r, Slot: slot})
	}
	for q.Len() > 0 {
		pop()
	}
	if len(ref) != 0 {
		t.Fatalf("the oracle still holds %d items", len(ref))
	}
}

// TestBoundNeverChangesThePops feeds one random search history to a queue
// bounded at k and to an unbounded one, and checks that their pops agree
// until k exact items have popped, when a search stops. Lower bounds are
// pushed both under fresh push numbers and under ones reserved earlier,
// as the R-tree's node cursors do, and distances repeat, so both the
// fresh and the reserved side of every tie are exercised.
func TestBoundNeverChangesThePops(t *testing.T) {
	var zero Queue
	zero.Reset(0) // a search for no segments pops nothing
	if zero.PushExact(0, 0) || zero.PushBound(0, zero.Reserve(1), 0) || zero.Len() != 0 {
		t.Fatalf("a queue for k=0 holds %d items", zero.Len())
	}
	for _, k := range []int{1, 2, 5, 17} {
		rng := rand.New(rand.NewSource(int64(k)))
		for run := 0; run < 200; run++ {
			var bounded, plain Queue
			bounded.Reset(k)
			plain.Reset(unbounded)
			var reserved []uint32
			exact := 0
			for step := 0; exact < k && step < 2000; step++ {
				switch op := rng.Intn(10); {
				case op < 3 && plain.Len() > 0:
					got, want := bounded.Pop(), plain.Pop()
					if got != want {
						t.Fatalf("k=%d run %d: pop after %d exact: bounded %+v, unbounded %+v", k, run, exact, got, want)
					}
					if got.Slot&1 == 1 {
						exact++
					}
				case op < 6:
					d := float64(rng.Intn(6))
					bounded.PushExact(d, 1)
					plain.PushExact(d, 1)
				case op < 8:
					first := bounded.Reserve(3)
					plain.Reserve(3)
					reserved = append(reserved, first, first+1, first+2)
				default:
					d := float64(rng.Intn(6))
					ref := bounded.Reserve(1)
					plain.Reserve(1)
					if len(reserved) > 0 && rng.Intn(2) == 0 {
						i := rng.Intn(len(reserved))
						ref = reserved[i]
						reserved = slices.Delete(reserved, i, i+1)
					}
					bounded.PushBound(d, ref, 0)
					plain.PushBound(d, ref, 0)
				}
			}
		}
	}
}

func TestWarmPushPopAllocatesNothing(t *testing.T) {
	var q Queue
	q.Reset(64)
	for i := 0; i < 128; i++ { // grow both backing arrays
		q.PushBound(float64(i%8), q.Reserve(1), 0)
		q.PushExact(float64(i%8), 0)
	}
	allocs := testing.AllocsPerRun(100, func() {
		q.Reset(16)
		for i := 0; i < 64; i++ {
			q.PushBound(float64(i%8), q.Reserve(1), uint32(i))
			q.PushExact(float64(i%8), uint32(i))
		}
		for q.Len() > 0 {
			q.Pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("warm push/pop cycle: %v allocations, want 0", allocs)
	}
}
