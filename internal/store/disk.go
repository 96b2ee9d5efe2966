// Package store simulates the disk subsystem of Hoel & Samet's testbed: a
// page-oriented store fronted by a small LRU buffer pool (16 pages of 1 KB
// by default, per §4 of the paper).
//
// As in the paper, a "disk access" is an operation that *potentially*
// touches the disk: fetching a page that is not resident in the pool, or
// writing back a dirty page on eviction or flush. The store keeps those
// counters; higher layers snapshot them around operations to produce the
// per-query disk-access statistics. Requests satisfied from the pool are
// counted separately as hits, so cache effectiveness is observable.
//
// Beyond the paper's testbed, the store carries a fault model: every page
// is checksummed (CRC32) on write and verified on read, disk I/O returns
// typed errors instead of assuming success, and a deterministic
// FaultPolicy can inject read/write errors, torn writes, bit flips, and a
// crash-after-N-writes power loss. See DESIGN.md, "Fault model &
// recovery".
//
// Concurrency: the Disk is latched (a short-held mutex around the page
// array) and so is the Pool (one mutex over its frame map and LRU list),
// so any number of goroutines may read pages through one Pool
// concurrently. Structural writers at higher layers (index insert/delete)
// must still be externally serialized — the latches protect the store's
// own invariants, not the page *contents* two writers might both edit.
package store

import (
	"fmt"
	"hash/crc32"
	"slices"
	"sync"
	"sync/atomic"

	"segdb/internal/obs"
)

// Default configuration used throughout the paper's main experiments.
const (
	DefaultPageSize  = 1024
	DefaultPoolPages = 16
	invalidPage      = ^PageID(0)
)

// PageID identifies a page on the simulated disk. Zero is a valid page;
// NilPage marks "no page".
type PageID uint32

// NilPage is the sentinel for a missing page reference.
const NilPage = invalidPage

// Stats is a point-in-time snapshot of potential disk activity.
type Stats struct {
	Reads   uint64 // pages fetched into the pool (buffer-pool misses)
	Writes  uint64 // dirty pages written back (eviction or flush)
	Allocs  uint64 // pages ever allocated
	Frees   uint64 // pages returned to the free list
	Hits    uint64 // pool requests satisfied without touching the disk
	Retries uint64 // operations reattempted under the RetryPolicy
}

// Accesses returns the total number of potential disk accesses, the
// quantity tabulated in Table 1 and Figure 6 of the paper. Pool hits are
// free and do not count.
func (s Stats) Accesses() uint64 { return s.Reads + s.Writes }

// Requests returns the total number of page requests the buffer pool
// served: hits plus misses (Reads). Unlike Reads alone, this total does
// not depend on the interleaving of concurrent queries.
func (s Stats) Requests() uint64 { return s.Hits + s.Reads }

// HitRatio returns the fraction of page requests served from the pool,
// or 0 when no requests have been made.
func (s Stats) HitRatio() float64 {
	if req := s.Requests(); req > 0 {
		return float64(s.Hits) / float64(req)
	}
	return 0
}

// Sub returns the counter deltas since an earlier snapshot.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Reads:   s.Reads - prev.Reads,
		Writes:  s.Writes - prev.Writes,
		Allocs:  s.Allocs - prev.Allocs,
		Frees:   s.Frees - prev.Frees,
		Hits:    s.Hits - prev.Hits,
		Retries: s.Retries - prev.Retries,
	}
}

// counters is the live, concurrency-safe form of Stats. Individual
// increments are atomic; a snapshot taken while operations are in flight
// is a consistent total only once those operations complete (Measure and
// the harness snapshot around quiesced phases).
type counters struct {
	reads   atomic.Uint64
	writes  atomic.Uint64
	allocs  atomic.Uint64
	frees   atomic.Uint64
	retries atomic.Uint64
}

func (c *counters) snapshot() Stats {
	return Stats{
		Reads:   c.reads.Load(),
		Writes:  c.writes.Load(),
		Allocs:  c.allocs.Load(),
		Frees:   c.frees.Load(),
		Retries: c.retries.Load(),
	}
}

// Disk is the simulated backing store: a growable array of fixed-size
// pages plus a free list. Every page carries a CRC32 of its last complete
// write; reads verify it, so torn writes and bit rot surface as
// ChecksumError instead of silently corrupting higher layers. A latch
// serializes access to the page array, so a Disk may be shared by
// concurrent readers; writers of the same page must still be externally
// coordinated (the buffer pool above provides that).
type Disk struct {
	mu       sync.Mutex // guards pages, sums, free, quar, journal
	pageSize int
	pages    [][]byte
	sums     []uint32 // per-page CRC32 of the last intended contents
	free     []PageID
	stats    counters
	faults   *FaultPolicy
	zeroSum  uint32 // CRC32 of an all-zero page

	// retry is outside the latch: the retry loop's backoff sleeps must
	// not hold d.mu (each attempt re-acquires it).
	retry atomic.Pointer[RetryPolicy]

	// quar is the quarantine set of degraded-read mode: pages whose
	// fetch failed a checksum or exhausted retries. Lazily allocated.
	quar map[PageID]struct{}

	// journal, when enabled, records every page written since the last
	// drain — the WAL layer's capture set.
	journalOn bool
	journal   map[PageID]struct{}
}

// NewDisk creates an empty disk with the given page size. It panics on a
// non-positive page size; that is a programmer error, not an I/O
// condition (callers restoring untrusted images must validate first).
func NewDisk(pageSize int) *Disk {
	if pageSize <= 0 {
		panic(fmt.Sprintf("store: invalid page size %d", pageSize))
	}
	return &Disk{
		pageSize: pageSize,
		zeroSum:  crc32.ChecksumIEEE(make([]byte, pageSize)),
	}
}

// PageSize returns the size in bytes of every page.
func (d *Disk) PageSize() int { return d.pageSize }

// PageCount returns the total number of pages ever allocated, including
// those currently on the free list.
func (d *Disk) PageCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.pages)
}

// PagesInUse returns the number of allocated, non-freed pages.
func (d *Disk) PagesInUse() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.pages) - len(d.free)
}

// SizeBytes returns the total storage occupied by live pages. This is the
// "size (Kbytes)" column of Table 1.
func (d *Disk) SizeBytes() int64 { return int64(d.PagesInUse()) * int64(d.pageSize) }

// Stats returns a snapshot of the disk's accumulated activity counters.
// The Hits field is always zero here: hits are a buffer-pool concept,
// filled in by Pool.Stats.
func (d *Disk) Stats() Stats { return d.stats.snapshot() }

// SetFaultPolicy attaches (or, with nil, detaches) a fault-injection
// policy. The same policy may be shared by several disks to model one
// physical device.
func (d *Disk) SetFaultPolicy(p *FaultPolicy) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.faults = p
}

// FaultPolicy returns the currently attached fault-injection policy, or
// nil. Operations that replace a disk (the facade's bulk rebuild) use it
// to carry the live policy over to the successor.
func (d *Disk) FaultPolicy() *FaultPolicy {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.faults
}

// allocate reserves a zeroed page and returns its id. Reusing a freed
// page lifts any quarantine on it — the fresh zero contents are valid.
func (d *Disk) allocate() PageID {
	d.stats.allocs.Add(1)
	d.mu.Lock()
	defer d.mu.Unlock()
	if n := len(d.free); n > 0 {
		id := d.free[n-1]
		d.free = d.free[:n-1]
		clear(d.pages[id])
		d.sums[id] = d.zeroSum
		delete(d.quar, id)
		return id
	}
	d.pages = append(d.pages, make([]byte, d.pageSize))
	d.sums = append(d.sums, d.zeroSum)
	return PageID(len(d.pages) - 1)
}

// release returns a page to the free list.
func (d *Disk) release(id PageID) {
	d.stats.frees.Add(1)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.free = append(d.free, id)
}

// read copies the page contents into buf, reattempting transient faults
// under the attached RetryPolicy. It fails with a typed error on an
// out-of-range id, an unabsorbed injected fault, or a checksum mismatch
// (torn write or bit rot detected).
func (d *Disk) read(id PageID, buf []byte) error {
	return d.readObs(id, buf, nil)
}

// readObs is read with per-query observation: retries are charged to o,
// and a canceled query abandons the backoff immediately.
func (d *Disk) readObs(id PageID, buf []byte, o *obs.Op) error {
	return d.withRetry("read", id, o, func() error { return d.readOnce(id, buf) })
}

// readOnce is one read attempt, counting one disk read.
func (d *Disk) readOnce(id PageID, buf []byte) error {
	d.stats.reads.Add(1)
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(id) >= len(d.pages) {
		return fmt.Errorf("store: read of page %d beyond disk end (%d pages): %w", id, len(d.pages), ErrBadPage)
	}
	if d.faults != nil {
		if err := d.faults.beforeRead(id); err != nil {
			return err
		}
	}
	if got := crc32.ChecksumIEEE(d.pages[id]); got != d.sums[id] {
		return &ChecksumError{Page: id, Want: d.sums[id], Got: got}
	}
	copy(buf, d.pages[id])
	return nil
}

// write copies buf onto the page, reattempting rejected writes under the
// attached RetryPolicy.
func (d *Disk) write(id PageID, buf []byte) error {
	return d.writeObs(id, buf, nil)
}

// writeObs is write with per-query observation (see readObs).
func (d *Disk) writeObs(id PageID, buf []byte, o *obs.Op) error {
	return d.withRetry("write", id, o, func() error { return d.writeOnce(id, buf) })
}

// writeOnce is one write attempt, counting one disk write. The page's
// checksum is recorded from the intended contents before any injected
// tear or bit flip lands, so silent corruption is caught by the next
// read. A write that reaches the page (even torn) lands in the journal
// and lifts the page's quarantine — the caller replaced the contents.
func (d *Disk) writeOnce(id PageID, buf []byte) error {
	d.stats.writes.Add(1)
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(id) >= len(d.pages) {
		return fmt.Errorf("store: write of page %d beyond disk end (%d pages): %w", id, len(d.pages), ErrBadPage)
	}
	if d.faults == nil {
		copy(d.pages[id], buf)
		d.sums[id] = crc32.ChecksumIEEE(d.pages[id])
		d.noteWrite(id)
		return nil
	}
	dec := d.faults.beforeWrite(id, d.pageSize)
	if dec.err != nil && !dec.crash {
		return dec.err // rejected outright; the page is untouched
	}
	d.sums[id] = crc32.ChecksumIEEE(buf[:d.pageSize])
	if dec.tornPrefix >= 0 {
		copy(d.pages[id][:dec.tornPrefix], buf)
	} else {
		copy(d.pages[id], buf)
	}
	if dec.flipBit >= 0 {
		d.pages[id][dec.flipBit/8] ^= 1 << (dec.flipBit % 8)
	}
	d.noteWrite(id)
	return dec.err
}

// noteWrite records a write's page in the journal (when enabled) and
// lifts any quarantine. Caller holds d.mu.
func (d *Disk) noteWrite(id PageID) {
	if d.journalOn {
		d.journal[id] = struct{}{}
	}
	delete(d.quar, id)
}

// CorruptPage flips one bit of the stored page without updating its
// checksum — a test hook for at-rest corruption ("cosmic ray").
func (d *Disk) CorruptPage(id PageID, bit int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(id) >= len(d.pages) {
		return fmt.Errorf("store: corrupt of page %d beyond disk end: %w", id, ErrBadPage)
	}
	bit %= d.pageSize * 8
	d.pages[id][bit/8] ^= 1 << (bit % 8)
	return nil
}

// quarantine marks a page unreadable for degraded-read mode.
func (d *Disk) quarantine(id PageID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.quar == nil {
		d.quar = make(map[PageID]struct{})
	}
	d.quar[id] = struct{}{}
}

// isQuarantined reports whether the page is quarantined.
func (d *Disk) isQuarantined(id PageID) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.quar[id]
	return ok
}

// Quarantined returns the quarantined pages in ascending order: pages
// whose fetch failed a checksum or exhausted retries while a
// degraded-read query was running. Scrub repairs and clears them.
func (d *Disk) Quarantined() []PageID {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]PageID, 0, len(d.quar))
	for id := range d.quar {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// SetJournal enables or disables the write journal. Enabling resets it.
func (d *Disk) SetJournal(on bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.journalOn = on
	if on {
		d.journal = make(map[PageID]struct{})
	} else {
		d.journal = nil
	}
}

// DrainJournal returns the pages written since the last drain, in
// ascending order, and resets the journal.
func (d *Disk) DrainJournal() []PageID {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]PageID, 0, len(d.journal))
	for id := range d.journal {
		out = append(out, id)
	}
	clear(d.journal)
	slices.Sort(out)
	return out
}

// RawPage returns a copy of the page's stored bytes with no checksum
// verification, fault injection, or accounting — the recovery and WAL
// layers' view of the medium itself.
func (d *Disk) RawPage(id PageID) ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(id) >= len(d.pages) {
		return nil, fmt.Errorf("store: raw read of page %d beyond disk end (%d pages): %w", id, len(d.pages), ErrBadPage)
	}
	return append([]byte(nil), d.pages[id]...), nil
}

// RawRestore overwrites the page with recovered contents, recomputing
// its checksum and lifting any quarantine — again bypassing faults and
// accounting. data must be exactly one page.
func (d *Disk) RawRestore(id PageID, data []byte) error {
	if len(data) != d.pageSize {
		return fmt.Errorf("store: raw restore of %d bytes onto %d-byte page", len(data), d.pageSize)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(id) >= len(d.pages) {
		return fmt.Errorf("store: raw restore of page %d beyond disk end (%d pages): %w", id, len(d.pages), ErrBadPage)
	}
	copy(d.pages[id], data)
	d.sums[id] = crc32.ChecksumIEEE(d.pages[id])
	delete(d.quar, id)
	return nil
}

// EnsurePages grows the disk to at least n pages (zeroed, valid
// checksums). Recovery uses it before restoring page images past the
// checkpoint's end of disk; it never shrinks.
func (d *Disk) EnsurePages(n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for len(d.pages) < n {
		d.pages = append(d.pages, make([]byte, d.pageSize))
		d.sums = append(d.sums, d.zeroSum)
	}
}

// FreeList returns a copy of the free list (recovery state capture).
func (d *Disk) FreeList() []PageID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]PageID(nil), d.free...)
}

// SetFreeList replaces the free list with recovered state.
func (d *Disk) SetFreeList(ids []PageID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.free = append(d.free[:0], ids...)
}

// BadPages returns every in-use page whose contents fail their recorded
// CRC32, in ascending order (the scrub's damage survey; compare
// VerifyChecksums, which stops at the first).
func (d *Disk) BadPages() []PageID {
	d.mu.Lock()
	defer d.mu.Unlock()
	onFree := make(map[PageID]struct{}, len(d.free))
	for _, id := range d.free {
		onFree[id] = struct{}{}
	}
	var bad []PageID
	for i, p := range d.pages {
		if _, free := onFree[PageID(i)]; free {
			continue
		}
		if crc32.ChecksumIEEE(p) != d.sums[i] {
			bad = append(bad, PageID(i))
		}
	}
	return bad
}

// CheckFreeList verifies the free list references each page at most once
// and only pages that exist. A duplicate would hand the same page to two
// owners on reallocation.
func (d *Disk) CheckFreeList() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	seen := make(map[PageID]struct{}, len(d.free))
	for _, id := range d.free {
		if int(id) >= len(d.pages) {
			return fmt.Errorf("store: free list entry %d beyond disk end (%d pages): %w", id, len(d.pages), ErrBadPage)
		}
		if _, dup := seen[id]; dup {
			return fmt.Errorf("store: page %d appears twice in the free list", id)
		}
		seen[id] = struct{}{}
	}
	return nil
}

// VerifyChecksums scans every in-use page and returns a ChecksumError for
// the first whose contents do not match their recorded CRC32. Free pages
// are skipped (their contents are dead and may legitimately be torn).
func (d *Disk) VerifyChecksums() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	onFree := make(map[PageID]struct{}, len(d.free))
	for _, id := range d.free {
		onFree[id] = struct{}{}
	}
	for i, p := range d.pages {
		if _, free := onFree[PageID(i)]; free {
			continue
		}
		if got := crc32.ChecksumIEEE(p); got != d.sums[i] {
			return &ChecksumError{Page: PageID(i), Want: d.sums[i], Got: got}
		}
	}
	return nil
}
