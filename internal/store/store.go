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
// array) and the Pool is sharded — pages hash onto independent shards,
// each with its own latch and eviction state — so any number of
// goroutines may read pages through one Pool concurrently without
// serializing on a single lock. A single-shard pool (NewPool) degenerates
// to the paper's one-latch exact-LRU pool; multi-shard pools use CLOCK
// second-chance eviction whose hit path is a shard-local read-lock plus
// two atomics. Structural writers at higher layers (index insert/delete)
// must still be externally serialized — the latches protect the store's
// own invariants, not the page *contents* two writers might both edit.
package store

import (
	"errors"
	"fmt"
	"hash/crc32"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

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

// frame is one buffer-pool slot. The pin count, dirty flag, and CLOCK
// reference bit are atomics so a sharded pool's hit path can pin and
// mark under a shard read lock; in exact-LRU mode they are only ever
// touched under the shard's exclusive latch.
type frame struct {
	id    PageID
	data  []byte
	dirty atomic.Bool
	pins  atomic.Int32
	ref   atomic.Bool // CLOCK second-chance reference bit
	// logged reports that the frame's current bytes are sealed in the
	// write-ahead log: SealLogged sets it once the commit record covering
	// the frame's page image is in the log, and modified clears it, so a
	// dirty frame is logged once per change rather than once per commit.
	// It means nothing on a clean frame. (Declared among the other 4-byte
	// flags so the frame stays in its 80-byte size class.)
	logged     atomic.Bool
	slot       int    // CLOCK ring position
	prev, next *frame // LRU list; most recently used at head

	// decoded is the frame's decode-once cache slot: the immutable
	// in-memory form of the page bytes (an *rpage.SoA, a B+-tree node),
	// built by the first GetDecodedObs after the frame came in and served
	// to every later one, so warm traversals skip the binary decode
	// entirely. It is cleared whenever the bytes change (Unpin with
	// dirty=true, MarkDirty) and vanishes with the frame on eviction,
	// Discard, Free, and DropAll — install always builds a fresh frame
	// struct even when it reuses the victim's byte buffer. Recovery builds
	// a whole new Pool, and Scrub repairs end in Discard, so a recovered
	// or repaired page can never serve a stale decode.
	decoded atomic.Pointer[any]
}

// modified records that the frame's bytes changed: they must be written
// back, logged again, and decoded afresh.
func (f *frame) modified() {
	f.dirty.Store(true)
	f.logged.Store(false)
	f.decoded.Store(nil)
}

// shard is one independent slice of a sharded pool: its own latch, frame
// table, and eviction state. A page always maps to the same shard, so
// shards never coordinate.
type shard struct {
	mu     sync.RWMutex
	cap    int
	frames map[PageID]*frame
	// Exact-LRU mode (single-shard pools).
	head *frame // most recently used
	tail *frame // least recently used
	// CLOCK mode (sharded pools): fixed ring of cap slots, nil = free.
	ring []*frame
	hand int
}

// Pool is a buffer pool over a Disk. Fetching a page that is resident
// costs nothing (a hit); a miss evicts an unpinned frame (writing it back
// if dirty) and reads the page from disk.
//
// The pool is sharded: a page's shard is a hash of its PageID, and each
// shard has its own latch and eviction state, so concurrent readers only
// contend when they touch the same shard. With a single shard (NewPool)
// the pool is the paper's configuration — one latch and exact LRU
// eviction, reproducing the experiments' disk-access counts precisely.
// With two or more shards eviction is CLOCK second-chance: the hit path
// takes only the shard's read lock and two atomic stores (pin count,
// reference bit), with no list manipulation, so hits from many goroutines
// scale near-linearly.
//
// The page bytes returned by Get alias the frame and are protected by the
// pin, not the latch — they stay valid until Unpin. Callers that *modify*
// page contents must be externally serialized (one writer at a time), as
// two concurrent writers to the same frame would race on the bytes
// themselves.
type Pool struct {
	disk     *Disk
	capacity int
	lru      bool // exact-LRU single-shard mode
	shift    uint32
	shards   []*shard
	hits     atomic.Uint64

	// Decode-once cache counters: decodeHits counts GetDecodedObs calls
	// served from a frame's cached decoded node (the binary decode was
	// skipped), decodeMisses those that had to decode.
	decodeHits   atomic.Uint64
	decodeMisses atomic.Uint64
}

// minAutoShardFrames is the smallest per-shard frame count the automatic
// shard sizing will accept: sharding a tiny pool to slivers trades hit
// ratio (and risks transient all-pinned shards) for nothing.
const minAutoShardFrames = 8

// evictRetries bounds how many times a request retries after finding
// every frame of its shard pinned. No read path holds a pin on return — a
// pin lasts a page decode or a copy — so a full shard is almost always a
// transient pin storm, in either eviction mode, even when readers
// outnumber a small pool's frames. evictWait is the wait before a retry:
// a yield at first, then short sleeps, because the pin's holder may be
// off the processor (preempted mid-decode, parked by the collector),
// which no amount of yielding outlasts. Exhausting the retries — some
// milliseconds; a write path pinning more pages than the pool has frames
// — surfaces ErrAllPinned.
const evictRetries = 128

func evictWait(attempt int) {
	if attempt < evictRetries/4 {
		runtime.Gosched()
		return
	}
	time.Sleep(50 * time.Microsecond)
}

// NewPool creates a single-shard buffer pool with the given number of
// frames — one latch and exact LRU eviction, the paper's configuration.
// It panics on a non-positive capacity (programmer error; validate
// untrusted configuration before calling).
func NewPool(disk *Disk, capacity int) *Pool {
	return NewShardedPool(disk, capacity, 1)
}

// NewShardedPool creates a buffer pool whose frames are partitioned
// across the given number of shards (rounded up to a power of two and
// clamped so every shard holds at least one frame). shards <= 0 selects
// an automatic count: the smallest power of two covering GOMAXPROCS,
// clamped so every shard keeps at least 8 frames. One shard gives exact
// LRU eviction; two or more give CLOCK second-chance eviction (see Pool).
// It panics on a non-positive capacity.
func NewShardedPool(disk *Disk, capacity, shards int) *Pool {
	if capacity <= 0 {
		panic(fmt.Sprintf("store: invalid pool capacity %d", capacity))
	}
	if shards <= 0 {
		shards = ceilPow2(runtime.GOMAXPROCS(0))
		for shards > 1 && capacity/shards < minAutoShardFrames {
			shards /= 2
		}
	}
	shards = ceilPow2(shards)
	for shards > capacity {
		shards /= 2
	}
	p := &Pool{
		disk:     disk,
		capacity: capacity,
		lru:      shards == 1,
		shift:    32 - uint32(log2(shards)),
		shards:   make([]*shard, shards),
	}
	for i := range p.shards {
		c := capacity / shards
		if i < capacity%shards {
			c++
		}
		sh := &shard{cap: c, frames: make(map[PageID]*frame, c)}
		if !p.lru {
			sh.ring = make([]*frame, c)
		}
		p.shards[i] = sh
	}
	return p
}

// ceilPow2 returns the smallest power of two >= n (and 1 for n <= 1).
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p *= 2
	}
	return p
}

// log2 returns the base-2 logarithm of a power of two.
func log2(n int) int {
	l := 0
	for n > 1 {
		n /= 2
		l++
	}
	return l
}

// Shards returns the number of independent shards the pool's frames are
// partitioned across.
func (p *Pool) Shards() int { return len(p.shards) }

// shardFor maps a page to its shard by a multiplicative hash of the page
// id (Fibonacci hashing: consecutive ids — a tree's pages are allocated
// consecutively — scatter across shards instead of striping).
func (p *Pool) shardFor(id PageID) *shard {
	return p.shards[(uint32(id)*0x9E3779B9)>>p.shift]
}

// Disk returns the underlying disk.
func (p *Pool) Disk() *Disk { return p.disk }

// PageSize returns the size of pages managed by this pool.
func (p *Pool) PageSize() int { return p.disk.pageSize }

// Stats returns the accumulated disk statistics plus the pool's hit
// count.
func (p *Pool) Stats() Stats {
	s := p.disk.stats.snapshot()
	s.Hits = p.hits.Load()
	return s
}

// Resident reports whether the page is currently in the pool (test hook).
func (p *Pool) Resident(id PageID) bool {
	sh := p.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	_, ok := sh.frames[id]
	return ok
}

// Allocate creates a new page and returns it pinned and dirty. The caller
// must Unpin it when done. On failure (ErrAllPinned, or a write fault
// evicting a victim) the fresh page is returned to the free list.
func (p *Pool) Allocate() (PageID, []byte, error) {
	id := p.disk.allocate()
	sh := p.shardFor(id)
	for attempt := 0; ; attempt++ {
		sh.mu.Lock()
		f, err := sh.install(p, id, false, nil)
		if err == nil {
			f.modified()
			f.pins.Add(1)
			sh.mu.Unlock()
			return id, f.data, nil
		}
		sh.mu.Unlock()
		if attempt >= evictRetries || !errors.Is(err, ErrAllPinned) {
			p.disk.release(id)
			return NilPage, nil, err
		}
		// Shard momentarily all pinned; readers' pins are transient, so
		// wait and retry rather than failing the allocation.
		evictWait(attempt)
	}
}

// Get pins the page and returns its contents. The slice aliases the buffer
// frame: it is valid until Unpin, and writes to it must be followed by
// Unpin(id, true) (or MarkDirty) to be persisted.
func (p *Pool) Get(id PageID) ([]byte, error) {
	return p.GetObs(id, nil)
}

// GetObs is Get with per-query observation. The page request is charged
// to o (hit or miss, plus any dirty write-back the miss's eviction
// causes) as well as to the pool's own counters, and a canceled query
// context aborts before the request is served — the page fetch is the
// cancellation granularity of the whole query layer. A nil o makes this
// identical to Get.
func (p *Pool) GetObs(id PageID, o *obs.Op) ([]byte, error) {
	f, err := p.pin(id, o)
	if err != nil {
		return nil, err
	}
	return f.data, nil
}

// pin is the shared request path behind GetObs and GetDecodedObs: it
// brings the page into the pool if needed, charges the request (hit or
// miss) to o and the pool's counters, and returns the frame with one pin
// taken.
func (p *Pool) pin(id PageID, o *obs.Op) (*frame, error) {
	if id == NilPage {
		return nil, fmt.Errorf("store: get of nil page: %w", ErrBadPage)
	}
	if err := o.Canceled(); err != nil {
		return nil, err
	}
	if o.Degraded() && p.disk.isQuarantined(id) {
		// Fail fast: the page is known bad; skip without charging the
		// disk another doomed read.
		o.PageSkipped()
		return nil, &PageUnavailableError{Page: id}
	}
	sh := p.shardFor(id)
	for attempt := 0; ; attempt++ {
		if !p.lru {
			// CLOCK hit path: shard read lock, pin, mark referenced.
			// Eviction needs the write lock and skips pinned frames, so
			// pinning under the read lock keeps the frame resident.
			sh.mu.RLock()
			if f, ok := sh.frames[id]; ok {
				f.pins.Add(1)
				f.ref.Store(true)
				sh.mu.RUnlock()
				p.hits.Add(1)
				o.PoolHits(1)
				return f, nil
			}
			sh.mu.RUnlock()
		}
		// Exact LRU takes the exclusive latch for every request (a hit
		// moves the list); CLOCK only to install, where a racer may have
		// brought the page in meanwhile — still a hit. Released by hand,
		// charges made after it: a deferred unlock was a measurable share
		// of an LRU hit.
		sh.mu.Lock()
		if f, ok := sh.frames[id]; ok {
			sh.touch(f)
			f.pins.Add(1)
			sh.mu.Unlock()
			p.hits.Add(1)
			o.PoolHits(1)
			return f, nil
		}
		f, err := sh.install(p, id, true, o)
		if err == nil {
			f.pins.Add(1)
			sh.mu.Unlock()
			o.PoolMiss(uint32(id))
			return f, nil
		}
		sh.mu.Unlock()
		if attempt >= evictRetries || !errors.Is(err, ErrAllPinned) {
			return nil, p.degrade(id, err, o)
		}
		// Every frame of the shard pinned: a read holds its pin only
		// across a page decode or a copy, so wait and retry the whole
		// request (the page may even arrive via a racer, turning the retry
		// into a hit).
		evictWait(attempt)
	}
}

// DecodeFunc builds the immutable in-memory form of a page from its raw
// bytes, for the decode-once cache. The returned value is shared across
// every later request for the page while its frame stays resident and
// clean, so it must be immutable and must not alias data.
type DecodeFunc func(data []byte) (any, error)

// GetDecodedObs returns the page's decoded form, building it with decode
// on the first request after the page comes into the pool (or after its
// bytes changed) and serving the cached value on every later one — the
// warm path skips the binary decode entirely. The request is charged to
// o and the pool's counters exactly like GetObs: the decode cache never
// changes which requests hit the disk, only whether a hit re-decodes.
//
// The returned value does not alias the frame, so no pin is held on
// return and no Unpin is owed. Callers that modify page bytes must be
// serialized against readers (the database's structural writer lock
// provides this); under that contract a request can never observe — or
// cache — a decoded value that is stale relative to the page's bytes.
func (p *Pool) GetDecodedObs(id PageID, o *obs.Op, decode DecodeFunc) (any, error) {
	f, err := p.pin(id, o)
	if err != nil {
		return nil, err
	}
	if dp := f.decoded.Load(); dp != nil {
		f.pins.Add(-1)
		p.decodeHits.Add(1)
		return *dp, nil
	}
	v, err := decode(f.data)
	if err != nil {
		f.pins.Add(-1)
		return nil, err
	}
	dp := new(any)
	*dp = v
	f.decoded.Store(dp)
	f.pins.Add(-1)
	p.decodeMisses.Add(1)
	return v, nil
}

// ReadObs copies len(dst) bytes of the page, from byte off, into dst. The
// request is charged to o and the pool's counters exactly like GetObs; the
// copy is taken under a pin dropped before returning, so no Unpin is owed.
// It is the segment table's read primitive (one record, or a cursor's
// page copy). Bytes a writer may be changing must lie outside the range
// asked for — the table asks only for records already visible to it.
func (p *Pool) ReadObs(id PageID, off int, dst []byte, o *obs.Op) error {
	f, err := p.pin(id, o)
	if err != nil {
		return err
	}
	copy(dst, f.data[off:off+len(dst)])
	f.pins.Add(-1)
	return nil
}

// CreditHits counts n requests a caller answered from its own copy of the
// page it last read through ReadObs. Each would have found that page
// resident and most recently used and changed nothing, so the pool owes
// it only the count; the caller charges its obs.Op itself.
func (p *Pool) CreditHits(n uint64) { p.hits.Add(n) }

// DecodeStats returns the decode-once cache counters: requests served
// from a frame's cached decoded node (the decode was skipped) and
// requests that had to decode.
func (p *Pool) DecodeStats() (hits, misses uint64) {
	return p.decodeHits.Load(), p.decodeMisses.Load()
}

// degrade converts a failed page fetch into quarantine-and-skip when the
// query runs in degraded-read mode and the failure is the page's own —
// a checksum mismatch or a transient read fault that exhausted its
// retries. Other failures (crash, cancellation, pinned-out pool, a
// victim's write-back fault) pass through untouched, as does every
// failure of a non-degraded query.
func (p *Pool) degrade(id PageID, err error, o *obs.Op) error {
	if !o.Degraded() || !quarantineable(err) {
		return err
	}
	p.disk.quarantine(id)
	o.PageSkipped()
	return &PageUnavailableError{Page: id, Err: err}
}

// quarantineable reports whether a read failure condemns the page itself.
func quarantineable(err error) bool {
	if errors.Is(err, ErrChecksum) {
		return true
	}
	var fe *FaultError
	if errors.As(err, &fe) {
		return fe.Kind == FaultRead
	}
	return false
}

// ForEachUnlogged calls fn with every dirty resident frame whose bytes
// are not yet sealed in the write-ahead log, in ascending page order,
// stopping at the first error. The data slice aliases the frame: fn must
// not retain it past the call. The caller must hold the database's
// structural writer lock (no concurrent query may be modifying frames) —
// this is the WAL layer's capture of not-yet-flushed state. It marks
// nothing: the caller seals the frames with SealLogged once the commit
// record is in the log.
func (p *Pool) ForEachUnlogged(fn func(id PageID, data []byte) error) error {
	var unlogged []*frame
	for _, sh := range p.shards {
		sh.mu.RLock()
		for _, f := range sh.frames {
			if f.dirty.Load() && !f.logged.Load() {
				unlogged = append(unlogged, f)
			}
		}
		sh.mu.RUnlock()
	}
	slices.SortFunc(unlogged, func(a, b *frame) int { return int(a.id) - int(b.id) })
	for _, f := range unlogged {
		if err := fn(f.id, f.data); err != nil {
			return err
		}
	}
	return nil
}

// SealLogged records that every dirty frame's current bytes are in the
// write-ahead log under a commit record. The caller holds the structural
// writer lock from ForEachUnlogged through the commit append to here, so
// the dirty frames are exactly those just captured plus those sealed by
// an earlier commit and untouched since.
func (p *Pool) SealLogged() {
	for _, sh := range p.shards {
		sh.mu.RLock()
		for _, f := range sh.frames {
			if f.dirty.Load() {
				f.logged.Store(true)
			}
		}
		sh.mu.RUnlock()
	}
}

// Dirty reports whether the page is resident with changes not yet
// written back to the disk.
func (p *Pool) Dirty(id PageID) bool {
	sh := p.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	f, ok := sh.frames[id]
	return ok && f.dirty.Load()
}

// Discard drops the page's frame without writing it back, so the next
// request re-reads the disk — used after an external repair lands newer
// bytes under a stale frame. It reports false (and leaves the frame) if
// the page is pinned; a missing frame is a successful no-op.
func (p *Pool) Discard(id PageID) bool {
	sh := p.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	f, ok := sh.frames[id]
	if !ok {
		return true
	}
	if f.pins.Load() > 0 {
		return false
	}
	sh.remove(f)
	return true
}

// Unpin releases one pin on the page, marking it dirty if the caller
// modified it. Unpinning a page that is not pinned panics: pin balance is
// a programmer invariant (pins are only handed out by Get/Allocate), not
// an I/O condition.
func (p *Pool) Unpin(id PageID, dirty bool) {
	sh := p.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	f, ok := sh.frames[id]
	if !ok || f.pins.Load() == 0 {
		panic(fmt.Sprintf("store: unpin of unpinned page %d", id))
	}
	if dirty {
		f.modified()
	}
	f.pins.Add(-1)
}

// MarkDirty flags a currently pinned page as modified. Marking a
// non-resident page panics (programmer error: the caller claims to hold a
// pin it does not have).
func (p *Pool) MarkDirty(id PageID) {
	sh := p.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	f, ok := sh.frames[id]
	if !ok {
		panic(fmt.Sprintf("store: mark dirty of non-resident page %d", id))
	}
	f.modified()
}

// Free returns the page to the disk free list. The page must be unpinned
// (freeing a pinned page panics — programmer error); a dirty page being
// freed is simply dropped without a write-back, since its contents are
// dead.
func (p *Pool) Free(id PageID) {
	sh := p.shardFor(id)
	sh.mu.Lock()
	if f, ok := sh.frames[id]; ok {
		if f.pins.Load() > 0 {
			sh.mu.Unlock()
			panic(fmt.Sprintf("store: free of pinned page %d", id))
		}
		sh.remove(f)
	}
	sh.mu.Unlock()
	p.disk.release(id)
}

// Flush writes back every dirty frame (without evicting), as done once at
// the end of a build so that sizes and write counts are comparable. On a
// write fault it stops and reports the error; the failed frame and any
// not yet visited stay dirty.
func (p *Pool) Flush() error {
	for _, sh := range p.shards {
		sh.mu.Lock()
		err := sh.flushLocked(p.disk)
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

func (sh *shard) flushLocked(d *Disk) error {
	for _, f := range sh.frames {
		if f.dirty.Load() {
			if err := d.write(f.id, f.data); err != nil {
				return err
			}
			f.dirty.Store(false)
		}
	}
	return nil
}

// DropAll empties the pool, writing back dirty pages. Used between
// experiment phases to cold-start the cache. Dropping while any page is
// pinned panics (programmer error). No query read path holds a pin on
// return, but GetDecodedObs and ReadObs hold one across their decode or
// copy, and write paths and Get/Allocate callers until Unpin, so DropAll
// must not run concurrently with queries or writes (DropUnpinned may). On
// a write fault the pool is left partially flushed and nothing is dropped.
func (p *Pool) DropAll() error {
	for _, sh := range p.shards {
		sh.mu.Lock()
		if err := sh.flushLocked(p.disk); err != nil {
			sh.mu.Unlock()
			return err
		}
		for id, f := range sh.frames {
			if f.pins.Load() > 0 {
				sh.mu.Unlock()
				panic(fmt.Sprintf("store: drop-all with pinned page %d", id))
			}
			delete(sh.frames, id)
		}
		sh.head, sh.tail = nil, nil
		for i := range sh.ring {
			sh.ring[i] = nil
		}
		sh.hand = 0
		sh.mu.Unlock()
	}
	return nil
}

// DropUnpinned flushes and evicts every frame not currently pinned,
// leaving pinned frames (and their decode caches) untouched, and
// returns how many frames were dropped. It is the cache-drop primitive
// for databases with snapshot readers in flight: DropAll panics on a
// pinned frame because dropping data under a reader is a correctness
// bug, but a pinned frame simply *staying resident* is not — the reader
// finishes against a warm page and the next drop gets it. On a write
// fault the pool is left partially flushed and nothing is dropped.
func (p *Pool) DropUnpinned() (int, error) {
	dropped := 0
	for _, sh := range p.shards {
		sh.mu.Lock()
		for _, f := range sh.frames {
			if f.pins.Load() > 0 || !f.dirty.Load() {
				continue
			}
			if err := p.disk.write(f.id, f.data); err != nil {
				sh.mu.Unlock()
				return dropped, err
			}
			f.dirty.Store(false)
		}
		for _, f := range sh.frames {
			if f.pins.Load() > 0 {
				continue
			}
			sh.remove(f)
			dropped++
		}
		sh.mu.Unlock()
	}
	return dropped, nil
}

// install brings a page into the shard, evicting if necessary, charging
// any eviction write-back to o. The shard latch must be held exclusively.
func (sh *shard) install(p *Pool, id PageID, readFromDisk bool, o *obs.Op) (*frame, error) {
	var (
		slot = -1
		buf  []byte
	)
	if len(sh.frames) >= sh.cap {
		var err error
		if slot, buf, err = sh.evictOne(p, o); err != nil {
			return nil, err
		}
	} else if sh.ring != nil {
		for i := range sh.ring {
			if sh.ring[i] == nil {
				slot = i
				break
			}
		}
	}
	if buf == nil {
		buf = make([]byte, p.disk.pageSize)
	}
	f := &frame{id: id, data: buf, slot: slot}
	if readFromDisk {
		if err := p.disk.readObs(id, f.data, o); err != nil {
			return nil, err
		}
	}
	sh.frames[id] = f
	if sh.ring != nil {
		sh.ring[slot] = f
		f.ref.Store(true)
	} else {
		sh.pushFront(f)
	}
	return f, nil
}

// evictOne frees one frame, charging a dirty victim's write-back to o,
// and returns the freed CLOCK slot (-1 in LRU mode) plus the victim's
// page buffer for reuse. The shard latch must be held exclusively.
//
// LRU mode evicts the least recently used unpinned frame — exactly the
// paper's policy. CLOCK mode sweeps the ring twice: the first pass
// clears reference bits (the second chance), the second catches every
// frame that stayed unreferenced; pins cannot change mid-sweep because
// both pinning and unpinning take at least the shard read lock. An
// all-pinned shard reports ErrAllPinned; the pool's request paths wait
// and retry (evictWait), since pins are transient.
func (sh *shard) evictOne(p *Pool, o *obs.Op) (int, []byte, error) {
	if sh.ring == nil {
		for f := sh.tail; f != nil; f = f.prev {
			if f.pins.Load() > 0 {
				continue
			}
			if f.dirty.Load() {
				if err := p.disk.writeObs(f.id, f.data, o); err != nil {
					return -1, nil, err
				}
				o.DiskWrite()
			}
			sh.unlink(f)
			delete(sh.frames, f.id)
			return -1, f.data, nil
		}
		return -1, nil, ErrAllPinned
	}
	for i := 0; i < 2*sh.cap; i++ {
		h := sh.hand
		sh.hand = (sh.hand + 1) % sh.cap
		f := sh.ring[h]
		if f == nil {
			// A Free raced a slot empty; take it without evicting.
			return h, nil, nil
		}
		if f.pins.Load() > 0 {
			continue
		}
		if f.ref.Load() {
			f.ref.Store(false)
			continue
		}
		if f.dirty.Load() {
			if err := p.disk.writeObs(f.id, f.data, o); err != nil {
				return -1, nil, err
			}
			o.DiskWrite()
		}
		delete(sh.frames, f.id)
		sh.ring[h] = nil
		return h, f.data, nil
	}
	return -1, nil, ErrAllPinned
}

// remove drops a frame from the shard's bookkeeping (both modes). The
// shard latch must be held exclusively.
func (sh *shard) remove(f *frame) {
	if sh.ring != nil {
		sh.ring[f.slot] = nil
	} else {
		sh.unlink(f)
	}
	delete(sh.frames, f.id)
}

// touch records a use under the exclusive latch: the frame moves to the
// LRU head, or in CLOCK mode has its reference bit set.
func (sh *shard) touch(f *frame) {
	if sh.ring != nil {
		f.ref.Store(true)
		return
	}
	if sh.head == f {
		return
	}
	sh.unlink(f)
	sh.pushFront(f)
}

func (sh *shard) pushFront(f *frame) {
	f.prev = nil
	f.next = sh.head
	if sh.head != nil {
		sh.head.prev = f
	}
	sh.head = f
	if sh.tail == nil {
		sh.tail = f
	}
}

func (sh *shard) unlink(f *frame) {
	if f.prev != nil {
		f.prev.next = f.next
	} else {
		sh.head = f.next
	}
	if f.next != nil {
		f.next.prev = f.prev
	} else {
		sh.tail = f.prev
	}
	f.prev, f.next = nil, nil
}
