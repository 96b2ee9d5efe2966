package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"slices"
	"testing"
)

func TestAllocateGetRoundTrip(t *testing.T) {
	p := NewPool(NewDisk(64), 4)
	id, data, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	copy(data, []byte("hello"))
	p.Unpin(id, true)
	p.DropAll() // force write-back and cold cache

	got, err := p.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Unpin(id, false)
	if !bytes.Equal(got[:5], []byte("hello")) {
		t.Errorf("got %q", got[:5])
	}
}

func TestMissAndHitCounting(t *testing.T) {
	p := NewPool(NewDisk(64), 2)
	var ids []PageID
	for i := 0; i < 3; i++ {
		id, data, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		data[0] = byte(i)
		p.Unpin(id, true)
		ids = append(ids, id)
	}
	// Pool holds 2 frames; allocating the 3rd evicted one dirty page.
	if w := p.Stats().Writes; w != 1 {
		t.Fatalf("writes after alloc churn = %d, want 1", w)
	}
	base := p.Stats()

	// Hitting a resident page costs nothing.
	resident := ids[2]
	if !p.Resident(resident) {
		t.Fatal("expected last page resident")
	}
	d, _ := p.Get(resident)
	p.Unpin(resident, false)
	if d[0] != 2 {
		t.Errorf("data = %d", d[0])
	}
	if got := p.Stats().Sub(base); got.Reads != 0 || got.Writes != 0 {
		t.Errorf("hit cost = %+v, want zero", got)
	}

	// Fetching an evicted page costs one read (plus possibly one write for
	// the evicted dirty victim).
	victim := ids[0]
	if p.Resident(victim) {
		t.Fatal("expected first page evicted")
	}
	d, _ = p.Get(victim)
	p.Unpin(victim, false)
	if d[0] != 0 {
		t.Errorf("data = %d", d[0])
	}
	if got := p.Stats().Sub(base); got.Reads != 1 {
		t.Errorf("miss reads = %d, want 1", got.Reads)
	}
}

func TestLRUOrder(t *testing.T) {
	p := NewPool(NewDisk(8), 2)
	a, _, _ := p.Allocate()
	p.Unpin(a, true)
	b, _, _ := p.Allocate()
	p.Unpin(b, true)
	// Touch a so b becomes LRU.
	p.Get(a)
	p.Unpin(a, false)
	c, _, _ := p.Allocate()
	p.Unpin(c, true)
	if !p.Resident(a) {
		t.Error("a should still be resident (recently used)")
	}
	if p.Resident(b) {
		t.Error("b should have been evicted (least recently used)")
	}
}

func TestPinPreventsEviction(t *testing.T) {
	p := NewPool(NewDisk(8), 2)
	a, _, _ := p.Allocate() // keep pinned
	b, _, _ := p.Allocate()
	p.Unpin(b, true)
	c, _, _ := p.Allocate() // must evict b, not pinned a
	p.Unpin(c, true)
	if !p.Resident(a) {
		t.Error("pinned page evicted")
	}
	p.Unpin(a, true)
}

func TestAllPinnedError(t *testing.T) {
	p := NewPool(NewDisk(8), 2)
	a, _, _ := p.Allocate()
	b, _, _ := p.Allocate()
	if _, _, err := p.Allocate(); err == nil {
		t.Error("expected error when all frames pinned")
	}
	p.Unpin(a, false)
	p.Unpin(b, false)
}

func TestFreeReusesPages(t *testing.T) {
	d := NewDisk(32)
	p := NewPool(d, 4)
	a, data, _ := p.Allocate()
	copy(data, []byte("junk"))
	p.Unpin(a, true)
	p.Free(a)
	if d.PagesInUse() != 0 {
		t.Fatalf("PagesInUse = %d, want 0", d.PagesInUse())
	}
	b, data2, _ := p.Allocate()
	if b != a {
		t.Errorf("expected page reuse, got %d (freed %d)", b, a)
	}
	for _, v := range data2 {
		if v != 0 {
			t.Fatal("reallocated page not zeroed")
		}
	}
	p.Unpin(b, true)
	if d.PagesInUse() != 1 {
		t.Errorf("PagesInUse = %d, want 1", d.PagesInUse())
	}
}

func TestSizeBytes(t *testing.T) {
	d := NewDisk(1024)
	p := NewPool(d, 16)
	for i := 0; i < 5; i++ {
		id, _, _ := p.Allocate()
		p.Unpin(id, true)
	}
	if got := d.SizeBytes(); got != 5*1024 {
		t.Errorf("SizeBytes = %d, want %d", got, 5*1024)
	}
}

func TestFlushWritesDirtyOnce(t *testing.T) {
	p := NewPool(NewDisk(16), 4)
	id, data, _ := p.Allocate()
	data[3] = 9
	p.Unpin(id, true)
	base := p.Stats()
	p.Flush()
	if got := p.Stats().Sub(base).Writes; got != 1 {
		t.Errorf("flush writes = %d, want 1", got)
	}
	// Second flush: nothing dirty.
	base = p.Stats()
	p.Flush()
	if got := p.Stats().Sub(base).Writes; got != 0 {
		t.Errorf("idempotent flush writes = %d, want 0", got)
	}
}

// Randomized consistency check: a pool-backed byte store behaves like a
// plain in-memory map of pages regardless of access order and evictions.
func TestPoolMatchesReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const pageSize = 32
	d := NewDisk(pageSize)
	p := NewPool(d, 3)
	ref := make(map[PageID][]byte)
	var ids []PageID

	for step := 0; step < 10000; step++ {
		switch op := rng.Intn(10); {
		case op < 2 || len(ids) == 0: // allocate
			id, data, err := p.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			rng.Read(data)
			ref[id] = append([]byte(nil), data...)
			p.Unpin(id, true)
			ids = append(ids, id)
		case op < 6: // read & verify
			id := ids[rng.Intn(len(ids))]
			data, err := p.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, ref[id]) {
				t.Fatalf("step %d: page %d mismatch", step, id)
			}
			p.Unpin(id, false)
		default: // overwrite a random byte
			id := ids[rng.Intn(len(ids))]
			data, err := p.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			i := rng.Intn(pageSize)
			v := byte(rng.Intn(256))
			data[i] = v
			ref[id][i] = v
			p.Unpin(id, true)
		}
	}
	// Final verification after a cold restart.
	p.DropAll()
	for _, id := range ids {
		data, _ := p.Get(id)
		if !bytes.Equal(data, ref[id]) {
			t.Fatalf("final: page %d mismatch", id)
		}
		p.Unpin(id, false)
	}
}

func TestStatsAccessesAndSub(t *testing.T) {
	s1 := Stats{Reads: 10, Writes: 4, Allocs: 2, Frees: 1}
	s0 := Stats{Reads: 3, Writes: 1, Allocs: 1, Frees: 0}
	if s1.Accesses() != 14 {
		t.Errorf("Accesses = %d", s1.Accesses())
	}
	diff := s1.Sub(s0)
	if diff != (Stats{Reads: 7, Writes: 3, Allocs: 1, Frees: 1}) {
		t.Errorf("Sub = %+v", diff)
	}
}

func TestDiskPersistRoundTrip(t *testing.T) {
	d := NewDisk(64)
	p := NewPool(d, 4)
	var ids []PageID
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 20; i++ {
		id, data, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		rng.Read(data)
		p.Unpin(id, true)
		ids = append(ids, id)
	}
	// Free a few pages so the free list round-trips too.
	p.Free(ids[3])
	p.Free(ids[7])
	p.Flush()

	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDiskFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.PageSize() != 64 || got.PagesInUse() != d.PagesInUse() {
		t.Fatalf("restored shape: pageSize=%d inUse=%d", got.PageSize(), got.PagesInUse())
	}
	gp := NewPool(got, 4)
	for _, id := range ids {
		if id == ids[3] || id == ids[7] {
			continue
		}
		want, _ := p.Get(id)
		wantCopy := append([]byte(nil), want...)
		p.Unpin(id, false)
		gotData, err := gp.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotData, wantCopy) {
			t.Fatalf("page %d differs after restore", id)
		}
		gp.Unpin(id, false)
	}
	// Restored free list is reused.
	nid, _, err := gp.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if nid != ids[7] && nid != ids[3] {
		t.Errorf("allocate after restore = %d, want a freed page", nid)
	}
	gp.Unpin(nid, true)
}

func TestReadDiskRejectsGarbage(t *testing.T) {
	if _, err := ReadDiskFrom(bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("garbage accepted")
	}
	// Wrong magic.
	var buf bytes.Buffer
	binary.Write(&buf, binary.LittleEndian, uint32(0xdeadbeef))
	binary.Write(&buf, binary.LittleEndian, uint32(64))
	binary.Write(&buf, binary.LittleEndian, uint32(0))
	binary.Write(&buf, binary.LittleEndian, uint32(0))
	if _, err := ReadDiskFrom(&buf); err == nil {
		t.Error("bad magic accepted")
	}
	// Truncated pages.
	d := NewDisk(32)
	p := NewPool(d, 2)
	id, _, _ := p.Allocate()
	p.Unpin(id, true)
	p.Flush()
	buf.Reset()
	d.WriteTo(&buf)
	if _, err := ReadDiskFrom(bytes.NewReader(buf.Bytes()[:buf.Len()-5])); err == nil {
		t.Error("truncated image accepted")
	}
}

// unloggedPages returns the pages ForEachUnlogged presents, in order.
func unloggedPages(t *testing.T, p *Pool) []PageID {
	t.Helper()
	var ids []PageID
	if err := p.ForEachUnlogged(func(id PageID, _ []byte) error {
		ids = append(ids, id)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return ids
}

// A dirty frame is presented for logging once per change: sealing hides
// it until Unpin(dirty), MarkDirty or a fresh Allocate changes its bytes
// again, and a capture that fails before the seal hides nothing.
func TestUnloggedFramesOncePerChange(t *testing.T) {
	p := NewPool(NewDisk(64), 8)
	var ids []PageID
	for i := 0; i < 4; i++ {
		id, _, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(id, true)
		ids = append(ids, id)
	}
	if got := unloggedPages(t, p); !slices.Equal(got, ids) {
		t.Fatalf("fresh pages: unlogged %v, want %v", got, ids)
	}

	// A capture that errors part-way (a failed WAL append) seals nothing.
	boom := errors.New("append failed")
	calls := 0
	if err := p.ForEachUnlogged(func(PageID, []byte) error {
		if calls++; calls == 2 {
			return boom
		}
		return nil
	}); err != boom {
		t.Fatalf("ForEachUnlogged error = %v, want %v", err, boom)
	}
	if got := unloggedPages(t, p); !slices.Equal(got, ids) {
		t.Fatalf("after a failed capture: unlogged %v, want %v", got, ids)
	}

	p.SealLogged()
	if got := unloggedPages(t, p); len(got) != 0 {
		t.Fatalf("after seal: unlogged %v, want none", got)
	}
	for _, id := range ids {
		if !p.Dirty(id) {
			t.Errorf("page %d no longer dirty after seal: sealing must not clean", id)
		}
	}

	// Reading a sealed page leaves it sealed; each way of modifying one
	// exposes exactly that page again.
	if _, err := p.Get(ids[0]); err != nil {
		t.Fatal(err)
	}
	p.Unpin(ids[0], false)
	if got := unloggedPages(t, p); len(got) != 0 {
		t.Fatalf("after a clean unpin: unlogged %v, want none", got)
	}
	if _, err := p.Get(ids[1]); err != nil {
		t.Fatal(err)
	}
	p.Unpin(ids[1], true)
	if _, err := p.Get(ids[2]); err != nil {
		t.Fatal(err)
	}
	p.MarkDirty(ids[2])
	p.Unpin(ids[2], false)
	p.Free(ids[3])
	again, _, err := p.Allocate() // reuses the freed page
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(again, true)
	if again != ids[3] {
		t.Fatalf("allocate reused page %d, want %d", again, ids[3])
	}
	if got, want := unloggedPages(t, p), ids[1:]; !slices.Equal(got, want) {
		t.Fatalf("after modifications: unlogged %v, want %v", got, want)
	}

	// A flushed frame is clean: nothing to log, and not Dirty.
	p.SealLogged()
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if p.Dirty(ids[0]) || len(unloggedPages(t, p)) != 0 {
		t.Fatal("flushed frames still dirty or unlogged")
	}
}
