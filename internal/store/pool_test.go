package store

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"unsafe"
)

// allocPages allocates n pages, fills each with a recognizable byte, and
// unpins them dirty.
func allocPages(t *testing.T, p *Pool, n int) []PageID {
	t.Helper()
	ids := make([]PageID, n)
	for i := range ids {
		id, data, err := p.Allocate()
		if err != nil {
			t.Fatalf("Allocate: %v", err)
		}
		for j := range data {
			data[j] = byte(id)
		}
		p.Unpin(id, true)
		ids[i] = id
	}
	return ids
}

// The frame fills one 64-byte size class; a pool of 4,096 frames pays
// for every byte above it.
func TestFrameSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("frame layout is checked on 64-bit platforms")
	}
	if got := unsafe.Sizeof(frame{}); got != 64 {
		t.Errorf("unsafe.Sizeof(frame{}) = %d, want 64", got)
	}
}

// TestMissReusesEvictedFrame is the allocation gate on the miss path: a
// pool smaller than the pages it cycles evicts on every request and
// reuses the victim's frame, so a request allocates nothing.
func TestMissReusesEvictedFrame(t *testing.T) {
	p := NewPool(NewDisk(DefaultPageSize), 4)
	ids := allocPages(t, p, 16)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		v, err := p.ViewObs(ids[i%len(ids)], nil)
		if err != nil {
			t.Fatal(err)
		}
		if v.Data()[0] != byte(ids[i%len(ids)]) {
			t.Fatalf("page %d holds byte %d", ids[i%len(ids)], v.Data()[0])
		}
		v.Release()
		i++
	})
	if allocs != 0 {
		t.Errorf("a missing request made %v allocations, want 0", allocs)
	}
	if h := p.Stats().Hits; h != 0 {
		t.Fatalf("%d pool hits, want every request to miss", h)
	}
}

func TestShardedPoolRoundTrip(t *testing.T) {
	// Far more pages than frames: every re-read goes through eviction and
	// dirty write-back, so a content mismatch would expose either
	// corrupted installs or lost write-backs.
	p := NewPool(NewDisk(128), 8)
	ids := allocPages(t, p, 64)
	for pass := 0; pass < 3; pass++ {
		for _, id := range ids {
			data, err := p.Get(id)
			if err != nil {
				t.Fatalf("Get(%d): %v", id, err)
			}
			if data[0] != byte(id) {
				t.Fatalf("page %d holds byte %d after eviction round-trip", id, data[0])
			}
			p.Unpin(id, false)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
}

// TestPoolMatchesLRUModel drives the pool and an independent reference
// LRU model through the same request trace and demands bit-for-bit equal
// disk counters. The paper's disk-access numbers depend on the exact
// 16-frame LRU eviction order, so the pool must remain that pool
// precisely.
func TestPoolMatchesLRUModel(t *testing.T) {
	const (
		capacity = 8
		pages    = 64
		ops      = 4000
	)
	p := NewPool(NewDisk(128), capacity)
	ids := allocPages(t, p, pages)
	if err := p.DropAll(); err != nil {
		t.Fatalf("DropAll: %v", err)
	}
	base := p.Stats()

	// Reference model: exact LRU over unpinned frames, dirty write-back
	// on eviction and flush.
	type mframe struct {
		id    PageID
		dirty bool
	}
	var recency []mframe // recency[0] is most recently used
	var wantReads, wantWrites uint64
	find := func(id PageID) int {
		for i, f := range recency {
			if f.id == id {
				return i
			}
		}
		return -1
	}
	touch := func(id PageID, dirty bool) {
		if i := find(id); i >= 0 {
			f := recency[i]
			f.dirty = f.dirty || dirty
			recency = append(recency[:i], recency[i+1:]...)
			recency = append([]mframe{f}, recency...)
			return
		}
		wantReads++
		if len(recency) == capacity {
			victim := recency[len(recency)-1]
			recency = recency[:len(recency)-1]
			if victim.dirty {
				wantWrites++
			}
		}
		recency = append([]mframe{{id: id, dirty: dirty}}, recency...)
	}

	rng := rand.New(rand.NewSource(42))
	for i := 0; i < ops; i++ {
		id := ids[rng.Intn(len(ids))]
		dirty := rng.Intn(4) == 0
		if _, err := p.Get(id); err != nil {
			t.Fatalf("Get(%d): %v", id, err)
		}
		p.Unpin(id, dirty)
		touch(id, dirty)
	}
	if err := p.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	for _, f := range recency {
		if f.dirty {
			wantWrites++
		}
	}

	got := p.Stats().Sub(base)
	if got.Reads != wantReads {
		t.Errorf("pool read %d pages, reference LRU reads %d", got.Reads, wantReads)
	}
	if got.Writes != wantWrites {
		t.Errorf("pool wrote %d pages, reference LRU writes %d", got.Writes, wantWrites)
	}
	for _, id := range ids {
		if p.Resident(id) != (find(id) >= 0) {
			t.Errorf("page %d residency %v disagrees with reference LRU", id, p.Resident(id))
		}
	}
}

// TestFlushSkipsHeldFrames pins the Flush contract: a frame whose bytes a
// Get or Allocate caller still holds stays dirty through a Flush, and the
// Flush after its Unpin writes it; a read-only pin does not stop the
// write-back.
func TestFlushSkipsHeldFrames(t *testing.T) {
	p := NewPool(NewDisk(64), 4)
	id, data, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	data[0] = 7
	onDisk := func() byte {
		t.Helper()
		raw, err := p.Disk().RawPage(id)
		if err != nil {
			t.Fatal(err)
		}
		return raw[0]
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := p.Stats().Writes; got != 0 || onDisk() != 0 {
		t.Fatalf("Flush wrote a held frame: %d writes, disk byte %d", got, onDisk())
	}
	p.Unpin(id, true)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := p.Stats().Writes; got != 1 || onDisk() != 7 {
		t.Fatalf("Flush after Unpin: %d writes, disk byte %d; want 1 write of byte 7", got, onDisk())
	}

	// A query's pin (GetDecodedObs, ReadObs) only reads the bytes.
	data, err = p.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	data[0] = 9
	p.Unpin(id, true)
	f := p.frames[id]
	f.pins.Add(1)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	f.pins.Add(-1)
	if got := p.Stats().Writes; got != 2 || onDisk() != 9 {
		t.Fatalf("Flush under a read pin: %d writes, disk byte %d; want 2 writes, byte 9", got, onDisk())
	}
}

func TestShardedPoolConcurrentStress(t *testing.T) {
	// Hammer one pool from many goroutines mixing Get, GetObs, Unpin,
	// Allocate, Free, and Flush. Run under -race this checks the latching
	// protocol; the content assertions check that concurrent eviction
	// never installs a frame over live data.
	p := NewPool(NewDisk(128), 24)
	shared := allocPages(t, p, 96)
	const (
		readers = 4
		loops   = 400
	)
	var wg sync.WaitGroup
	errc := make(chan error, readers+2)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < loops; i++ {
				id := shared[rng.Intn(len(shared))]
				data, err := p.Get(id)
				if err != nil {
					errc <- fmt.Errorf("Get(%d): %w", id, err)
					return
				}
				if data[0] != byte(id) {
					errc <- fmt.Errorf("page %d holds byte %d under concurrency", id, data[0])
					return
				}
				p.Unpin(id, false)
			}
		}(int64(r))
	}
	wg.Add(1)
	go func() { // churn private pages through Allocate/Free
		defer wg.Done()
		for i := 0; i < loops/4; i++ {
			id, data, err := p.Allocate()
			if err != nil {
				errc <- fmt.Errorf("Allocate: %w", err)
				return
			}
			data[0] = byte(id)
			p.Unpin(id, true)
			p.Free(id)
		}
	}()
	wg.Add(1)
	go func() { // periodic flushes race the readers and the allocator
		defer wg.Done()
		for i := 0; i < 32; i++ {
			if err := p.Flush(); err != nil {
				errc <- fmt.Errorf("Flush: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Requests() != st.Hits+st.Reads {
		t.Errorf("stats identity broken: requests %d, hits %d + reads %d", st.Requests(), st.Hits, st.Reads)
	}
	if err := p.Flush(); err != nil {
		t.Fatalf("final Flush: %v", err)
	}
	for _, id := range shared {
		data, err := p.Get(id)
		if err != nil {
			t.Fatalf("post-stress Get(%d): %v", id, err)
		}
		if data[0] != byte(id) {
			t.Fatalf("page %d corrupted by concurrent churn", id)
		}
		p.Unpin(id, false)
	}
}
