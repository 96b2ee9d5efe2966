package store

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"

	"segdb/internal/obs"
)

// countingDecode returns a DecodeFunc that parses the little-endian
// uint32 at the start of the page and counts its invocations.
func countingDecode(calls *int) DecodeFunc {
	return func(data []byte) (any, error) {
		*calls++
		return binary.LittleEndian.Uint32(data), nil
	}
}

func newDecodePage(t *testing.T, p *Pool, val uint32) PageID {
	t.Helper()
	id, buf, err := p.Allocate()
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	binary.LittleEndian.PutUint32(buf, val)
	p.Unpin(id, true)
	return id
}

// The second decoded fetch of a warm page must be served from the cache:
// no decode call, a decode hit counted, and the identical value returned.
func TestDecodeCacheServesWarmPage(t *testing.T) {
	p := NewPool(NewDisk(DefaultPageSize), 4)
	id := newDecodePage(t, p, 42)
	calls := 0
	dec := countingDecode(&calls)
	v1, err := p.GetDecodedObs(id, nil, dec)
	if err != nil {
		t.Fatalf("first GetDecodedObs: %v", err)
	}
	v2, err := p.GetDecodedObs(id, nil, dec)
	if err != nil {
		t.Fatalf("second GetDecodedObs: %v", err)
	}
	if v1.(uint32) != 42 || v2.(uint32) != 42 {
		t.Fatalf("decoded values = %v, %v, want 42", v1, v2)
	}
	if calls != 1 {
		t.Fatalf("decode ran %d times, want 1", calls)
	}
	hits, misses := p.DecodeStats()
	if hits != 1 || misses != 1 {
		t.Fatalf("DecodeStats = %d hits, %d misses, want 1, 1", hits, misses)
	}
}

// A decode failure must not be cached: the error propagates and the next
// request decodes again.
func TestDecodeCacheDoesNotCacheErrors(t *testing.T) {
	p := NewPool(NewDisk(DefaultPageSize), 4)
	id := newDecodePage(t, p, 7)
	calls := 0
	boom := errors.New("boom")
	dec := func(data []byte) (any, error) {
		calls++
		if calls == 1 {
			return nil, boom
		}
		return binary.LittleEndian.Uint32(data), nil
	}
	if _, err := p.GetDecodedObs(id, nil, dec); !errors.Is(err, boom) {
		t.Fatalf("first GetDecodedObs err = %v, want boom", err)
	}
	v, err := p.GetDecodedObs(id, nil, dec)
	if err != nil {
		t.Fatalf("second GetDecodedObs: %v", err)
	}
	if v.(uint32) != 7 || calls != 2 {
		t.Fatalf("v=%v calls=%d, want 7 and 2", v, calls)
	}
}

// Evicting a frame must take its cached decode with it: after the page
// cycles out of the pool and back in, the decode runs again.
func TestDecodeCacheInvalidatedOnEviction(t *testing.T) {
	p := NewPool(NewDisk(DefaultPageSize), 1) // single frame: every other page evicts
	a := newDecodePage(t, p, 1)
	b := newDecodePage(t, p, 2)
	calls := 0
	dec := countingDecode(&calls)
	if _, err := p.GetDecodedObs(a, nil, dec); err != nil {
		t.Fatal(err)
	}
	if _, err := p.GetDecodedObs(b, nil, dec); err != nil { // evicts a
		t.Fatal(err)
	}
	v, err := p.GetDecodedObs(a, nil, dec) // re-read from disk, re-decode
	if err != nil {
		t.Fatal(err)
	}
	if v.(uint32) != 1 || calls != 3 {
		t.Fatalf("v=%v calls=%d, want 1 and 3 (decode per install)", v, calls)
	}
	if hits, _ := p.DecodeStats(); hits != 0 {
		t.Fatalf("decode hits = %d, want 0 after pure eviction churn", hits)
	}
}

// Overwriting page bytes and unpinning dirty must drop the cached decode,
// so the next decoded fetch sees the new bytes.
func TestDecodeCacheInvalidatedOnDirtyUnpin(t *testing.T) {
	p := NewPool(NewDisk(DefaultPageSize), 4)
	id := newDecodePage(t, p, 10)
	calls := 0
	dec := countingDecode(&calls)
	if v, err := p.GetDecodedObs(id, nil, dec); err != nil || v.(uint32) != 10 {
		t.Fatalf("v=%v err=%v", v, err)
	}
	buf, err := p.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(buf, 11)
	p.Unpin(id, true)
	v, err := p.GetDecodedObs(id, nil, dec)
	if err != nil {
		t.Fatal(err)
	}
	if v.(uint32) != 11 {
		t.Fatalf("decoded %v after overwrite, want 11 (stale cache served)", v)
	}
	if calls != 2 {
		t.Fatalf("decode ran %d times, want 2", calls)
	}
}

// Discard (the scrub repair path: RawRestore then Discard) must force a
// re-read and a re-decode of the repaired bytes.
func TestDecodeCacheInvalidatedOnDiscard(t *testing.T) {
	d := NewDisk(DefaultPageSize)
	p := NewPool(d, 4)
	id := newDecodePage(t, p, 30)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	calls := 0
	dec := countingDecode(&calls)
	if _, err := p.GetDecodedObs(id, nil, dec); err != nil {
		t.Fatal(err)
	}
	repaired := make([]byte, DefaultPageSize)
	binary.LittleEndian.PutUint32(repaired, 31)
	if err := d.RawRestore(id, repaired); err != nil {
		t.Fatal(err)
	}
	if !p.Discard(id) {
		t.Fatal("Discard reported the page pinned")
	}
	v, err := p.GetDecodedObs(id, nil, dec)
	if err != nil {
		t.Fatal(err)
	}
	if v.(uint32) != 31 || calls != 2 {
		t.Fatalf("v=%v calls=%d, want 31 and 2 (stale decode survived repair)", v, calls)
	}
}

// DropAll (the cold-start between experiment phases) must empty the
// decode cache along with the frames.
func TestDecodeCacheInvalidatedOnDropAll(t *testing.T) {
	p := NewPool(NewDisk(DefaultPageSize), 4)
	id := newDecodePage(t, p, 40)
	calls := 0
	dec := countingDecode(&calls)
	if _, err := p.GetDecodedObs(id, nil, dec); err != nil {
		t.Fatal(err)
	}
	if err := p.DropAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.GetDecodedObs(id, nil, dec); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("decode ran %d times, want 2 after DropAll", calls)
	}
}

// A degraded-read quarantine must fail the decoded fetch without caching
// anything, and once the page is repaired (quarantine lifted, frame
// discarded) the decoded fetch must see the repaired bytes.
func TestDecodeCacheDegradedQuarantine(t *testing.T) {
	d := NewDisk(DefaultPageSize)
	p := NewPool(d, 4)
	id := newDecodePage(t, p, 50)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := p.DropAll(); err != nil {
		t.Fatal(err)
	}
	if err := d.CorruptPage(id, 9); err != nil {
		t.Fatal(err)
	}
	o := obs.Begin(context.Background(), nil, obs.QueryInfo{})
	o.SetDegraded(true)
	calls := 0
	dec := countingDecode(&calls)
	if _, err := p.GetDecodedObs(id, o, dec); !IsUnavailable(err) {
		t.Fatalf("decoded fetch of corrupt page: err=%v, want PageUnavailableError", err)
	}
	if calls != 0 {
		t.Fatal("decode ran on a failed fetch")
	}
	if !d.isQuarantined(id) {
		t.Fatal("page not quarantined after degraded checksum failure")
	}
	// The second degraded fetch fails fast from the quarantine set.
	if _, err := p.GetDecodedObs(id, o, dec); !IsUnavailable(err) {
		t.Fatalf("quarantined fetch: err=%v, want PageUnavailableError", err)
	}
	// Repair: restore good bytes (lifts quarantine) and drop the frame.
	repaired := make([]byte, DefaultPageSize)
	binary.LittleEndian.PutUint32(repaired, 51)
	if err := d.RawRestore(id, repaired); err != nil {
		t.Fatal(err)
	}
	p.Discard(id)
	v, err := p.GetDecodedObs(id, o, dec)
	if err != nil {
		t.Fatalf("decoded fetch after repair: %v", err)
	}
	if v.(uint32) != 51 || calls != 1 {
		t.Fatalf("v=%v calls=%d, want 51 and 1", v, calls)
	}
	o.Finish(nil)
}

// The decode cache must never change which requests touch the disk: a
// byte-path GetObs stream and a decoded-path stream over the same pages
// produce identical read/hit counters.
func TestDecodeCacheDiskCountsMatchBytePath(t *testing.T) {
	run := func(decoded bool) Stats {
		p := NewPool(NewDisk(DefaultPageSize), 4)
		ids := make([]PageID, 8)
		for i := range ids {
			ids[i] = newDecodePage(t, p, uint32(i))
		}
		if err := p.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := p.DropAll(); err != nil {
			t.Fatal(err)
		}
		base := p.Stats()
		calls := 0
		dec := countingDecode(&calls)
		for pass := 0; pass < 3; pass++ {
			for _, id := range ids {
				if decoded {
					if _, err := p.GetDecodedObs(id, nil, dec); err != nil {
						t.Fatal(err)
					}
				} else {
					if _, err := p.Get(id); err != nil {
						t.Fatal(err)
					}
					p.Unpin(id, false)
				}
			}
		}
		return p.Stats().Sub(base)
	}
	bytePath, decodedPath := run(false), run(true)
	if bytePath != decodedPath {
		t.Fatalf("disk counters diverge: byte path %+v, decoded path %+v", bytePath, decodedPath)
	}
}

// Hammer the decode cache from many goroutines across eviction churn,
// dirty overwrites, and discards; under -race this doubles as the
// synchronization proof. Every decoded value must match the value its
// decode call saw in the bytes — a torn or stale cache would surface as a
// mismatch.
func TestDecodeCacheConcurrent(t *testing.T) {
	d := NewDisk(DefaultPageSize)
	p := NewPool(d, 8) // small: constant eviction pressure
	const pages = 32
	ids := make([]PageID, pages)
	for i := range ids {
		ids[i] = newDecodePage(t, p, uint32(i)<<8)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	dec := func(data []byte) (any, error) {
		return binary.LittleEndian.Uint32(data), nil
	}
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				id := ids[(g*31+i)%pages]
				v, err := p.GetDecodedObs(id, nil, dec)
				if err != nil {
					errc <- fmt.Errorf("g%d i%d: %v", g, i, err)
					return
				}
				if v.(uint32)>>8 != uint32((g*31+i)%pages) {
					errc <- fmt.Errorf("g%d i%d: page %d decoded to %d", g, i, id, v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}

// Writers racing readers is the database's structural-lock territory, but
// the low-level invariant still holds: after a dirty unpin the very next
// decoded fetch (same goroutine) re-decodes the new bytes, even while
// other goroutines are reading other pages.
func TestDecodeCacheWriteInvalidationUnderLoad(t *testing.T) {
	d := NewDisk(DefaultPageSize)
	p := NewPool(d, 16)
	const pages = 8
	ids := make([]PageID, pages)
	for i := range ids {
		ids[i] = newDecodePage(t, p, 0)
	}
	dec := func(data []byte) (any, error) {
		return binary.LittleEndian.Uint32(data), nil
	}
	var wg sync.WaitGroup
	errc := make(chan error, pages)
	for g := 0; g < pages; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := ids[g] // each goroutine owns one page: writer serialization per contract
			for i := uint32(1); i <= 500; i++ {
				buf, err := p.Get(id)
				if err != nil {
					errc <- err
					return
				}
				binary.LittleEndian.PutUint32(buf, i)
				p.Unpin(id, true)
				v, err := p.GetDecodedObs(id, nil, dec)
				if err != nil {
					errc <- err
					return
				}
				if v.(uint32) != i {
					errc <- fmt.Errorf("page %d: decoded %d after writing %d", id, v, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}
