package staging

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"segdb/internal/geom"
	"segdb/internal/seg"
)

func randSeg(rng *rand.Rand) geom.Segment {
	x1 := rng.Int31n(geom.WorldSize)
	y1 := rng.Int31n(geom.WorldSize)
	x2 := x1 + rng.Int31n(200) - 100
	y2 := y1 + rng.Int31n(200) - 100
	clamp := func(v int32) int32 {
		if v < 0 {
			return 0
		}
		if v >= geom.WorldSize {
			return geom.WorldSize - 1
		}
		return v
	}
	return geom.Seg(clamp(x1), clamp(y1), clamp(x2), clamp(y2))
}

// bruteWindow computes the expected window answer by a linear scan over
// the same visibility rules the grid path implements.
func bruteWindow(m *Mem, visible int, version uint64, r geom.Rect) []seg.ID {
	var ids []seg.ID
	m.ForEachVisibleLive(visible, version, func(id seg.ID, s geom.Segment) {
		if r.IntersectsSegment(s) {
			ids = append(ids, id)
		}
	})
	return ids
}

func sortIDs(ids []seg.ID) []seg.ID {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// TestMemWindowMatchesLinearScan cross-checks the grid-accelerated
// window scan (with its owner-cell dedup) against a brute-force linear
// scan, across many random windows, visibility horizons, and deletes.
func TestMemWindowMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := NewMem()
	var version uint64
	for i := 0; i < 500; i++ {
		version++
		m.Add(seg.ID(i), randSeg(rng))
		if i%7 == 3 {
			version++
			m.Delete(seg.ID(rng.Intn(i+1)), version)
		}
	}
	for trial := 0; trial < 200; trial++ {
		r := geom.RectOf(rng.Int31n(geom.WorldSize), rng.Int31n(geom.WorldSize),
			rng.Int31n(geom.WorldSize), rng.Int31n(geom.WorldSize))
		visible := rng.Intn(m.Len() + 1)
		v := uint64(rng.Intn(int(version) + 1))
		var got []seg.ID
		m.Window(visible, v, r, func(id seg.ID, _ geom.Segment) bool {
			got = append(got, id)
			return true
		}, nil)
		want := bruteWindow(m, visible, v, r)
		sortIDs(got)
		sortIDs(want)
		if len(got) != len(want) {
			t.Fatalf("trial %d: window returned %d ids, want %d (visible=%d v=%d r=%v)",
				trial, len(got), len(want), visible, v, r)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: ids[%d] = %d, want %d", trial, i, got[i], want[i])
			}
		}
	}
}

func TestMemWindowEarlyStop(t *testing.T) {
	m := NewMem()
	for i := 0; i < 10; i++ {
		m.Add(seg.ID(i), geom.Seg(int32(i*10), 5, int32(i*10)+5, 5))
	}
	calls := 0
	done := m.Window(m.Len(), 0, geom.World(), func(seg.ID, geom.Segment) bool {
		calls++
		return calls < 3
	}, nil)
	if done {
		t.Fatal("Window reported full completion despite early stop")
	}
	if calls != 3 {
		t.Fatalf("visit called %d times, want 3", calls)
	}
}

func TestMemDeleteVisibility(t *testing.T) {
	m := NewMem()
	m.Add(1, geom.Seg(0, 0, 10, 10))
	if !m.Delete(1, 5) {
		t.Fatal("Delete of a live staged add returned false")
	}
	if m.Delete(1, 6) {
		t.Fatal("second Delete of the same id returned true")
	}
	if m.Delete(99, 7) {
		t.Fatal("Delete of an unknown id returned true")
	}
	// A snapshot at version 4 (before the delete at 5) still sees it.
	if got := bruteWindow(m, 1, 4, geom.World()); len(got) != 1 {
		t.Fatalf("snapshot before delete sees %d segments, want 1", len(got))
	}
	// A snapshot at version 5 or later does not.
	if got := bruteWindow(m, 1, 5, geom.World()); len(got) != 0 {
		t.Fatalf("snapshot at delete version sees %d segments, want 0", len(got))
	}
	if m.Live() != 0 {
		t.Fatalf("Live = %d, want 0", m.Live())
	}
}

// TestMemConcurrentReadersOneWriter runs the memtable's intended
// concurrency pattern — one writer appending and deleting, many readers
// scanning at fixed (visible, version) horizons — under the race
// detector. Readers assert only invariants that hold at their horizon:
// every reported id is below the horizon and intersects the window.
func TestMemConcurrentReadersOneWriter(t *testing.T) {
	m := NewMem()
	const total = 2000
	type horizon struct {
		visible int
		version uint64
	}
	var cur sync.Map // single slot: latest published horizon
	cur.Store(0, horizon{})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(gid int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(gid)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				hv, _ := cur.Load(0)
				h := hv.(horizon)
				r := geom.RectOf(rng.Int31n(geom.WorldSize), rng.Int31n(geom.WorldSize),
					rng.Int31n(geom.WorldSize), rng.Int31n(geom.WorldSize))
				m.Window(h.visible, h.version, r, func(id seg.ID, s geom.Segment) bool {
					if int(id) >= h.visible {
						t.Errorf("reader saw id %d beyond horizon %d", id, h.visible)
						return false
					}
					if !r.IntersectsSegment(s) {
						t.Errorf("reader got non-intersecting segment %d", id)
						return false
					}
					return true
				}, nil)
			}
		}(g)
	}
	rng := rand.New(rand.NewSource(99))
	var version uint64
	for i := 0; i < total; i++ {
		version++
		m.Add(seg.ID(i), randSeg(rng))
		if i%5 == 0 && i > 0 {
			version++
			m.Delete(seg.ID(rng.Intn(i)), version)
		}
		// Publish the new horizon (the facade's snapshot pointer plays
		// this role in production; sync.Map's store is a release barrier
		// the same way).
		cur.Store(0, horizon{visible: i + 1, version: version})
	}
	close(stop)
	wg.Wait()
}
