package store

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"segdb/internal/obs"
)

// frame is one buffer-pool slot. Its bookkeeping — the dirty bit, the
// held count and the LRU links — is guarded by the pool latch; the pin
// count and the decode slot are atomics because GetDecodedObs, ReadObs and
// View.Release drop their pin, and View.Decoded reads the slot, without it.
type frame struct {
	id    PageID
	data  []byte
	pins  atomic.Int32
	dirty bool // bytes not yet written back to the disk
	// held counts the pins handed out with the bytes (Get, Allocate),
	// whose holders may be writing them; Flush leaves such a frame alone.
	held       uint16
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

// take adds a pin, counted as held when its taker gets the bytes. The
// pool latch must be held.
func (f *frame) take(held bool) {
	f.pins.Add(1)
	if held {
		f.held++
	}
}

// modified records that the frame's bytes changed: they must be written
// back and decoded afresh. The pool latch must be held.
func (f *frame) modified() {
	f.dirty = true
	f.decoded.Store(nil)
}

// Pool is a buffer pool over a Disk: the paper's configuration, one latch
// over a page table and an exact-LRU list. Fetching a page that is
// resident costs nothing (a hit); a miss evicts the least recently used
// unpinned frame (writing it back if dirty) and reads the page from disk,
// so the experiments' disk-access counts reproduce precisely.
//
// The page bytes returned by Get alias the frame and are protected by the
// pin, not the latch — they stay valid until Unpin. Callers that *modify*
// page contents must be externally serialized (one writer at a time), as
// two concurrent writers to the same frame would race on the bytes
// themselves.
type Pool struct {
	disk     *Disk
	capacity int
	hits     atomic.Uint64

	mu sync.Mutex // guards frames, resident, the LRU list and each frame's dirty bit
	// frames is the page table: the resident frame of page id is
	// frames[id], nil when the page is not resident. Page IDs are dense
	// from the disk's allocator, so a slice replaces a hash lookup; it
	// grows when a page beyond its end comes in.
	frames   []*frame
	resident int    // the non-nil entries of frames
	head     *frame // most recently used
	tail     *frame // least recently used

	// Decode-once cache counters: decodeHits counts GetDecodedObs calls
	// served from a frame's cached decoded node (the binary decode was
	// skipped), decodeMisses those that had to decode.
	decodeHits   atomic.Uint64
	decodeMisses atomic.Uint64
}

// evictRetries bounds how many times a request retries after finding
// every frame pinned. No read path holds a pin on return — a pin lasts a
// page decode, a copy, or a B+-tree leaf's visit under a View — so a
// full pool is almost always a transient pin storm, even when readers outnumber a small pool's frames. evictWait is
// the wait before a retry: a yield at first, then short sleeps, because
// the pin's holder may be off the processor (preempted mid-decode, parked
// by the collector), which no amount of yielding outlasts. Exhausting the
// retries — some milliseconds; a write path pinning more pages than the
// pool has frames — surfaces ErrAllPinned.
const evictRetries = 128

func evictWait(attempt int) {
	if attempt < evictRetries/4 {
		runtime.Gosched()
		return
	}
	time.Sleep(50 * time.Microsecond)
}

// NewPool creates a buffer pool with the given number of frames. It
// panics on a non-positive capacity (programmer error; validate untrusted
// configuration before calling).
func NewPool(disk *Disk, capacity int) *Pool {
	if capacity <= 0 {
		panic(fmt.Sprintf("store: invalid pool capacity %d", capacity))
	}
	return &Pool{disk: disk, capacity: capacity}
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
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lookup(id) != nil
}

// Pinned returns the pins held on resident frames (test hook).
func (p *Pool) Pinned() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for f := p.head; f != nil; f = f.next {
		n += int(f.pins.Load())
	}
	return n
}

// lookup returns the resident frame of page id, or nil. The latch must be
// held.
func (p *Pool) lookup(id PageID) *frame {
	if int(id) < len(p.frames) {
		return p.frames[id]
	}
	return nil
}

// Allocate creates a new zeroed page and returns it pinned and dirty.
// The caller must Unpin it when done. On failure (ErrAllPinned, or a
// write fault evicting a victim) the fresh page is returned to the free
// list.
func (p *Pool) Allocate() (PageID, []byte, error) {
	id := p.disk.allocate()
	for attempt := 0; ; attempt++ {
		p.mu.Lock()
		f, err := p.install(id, false, nil)
		if err == nil {
			clear(f.data) // a reused victim buffer still holds the evicted page
			f.modified()
			f.take(true)
			p.mu.Unlock()
			return id, f.data, nil
		}
		p.mu.Unlock()
		if attempt >= evictRetries || !errors.Is(err, ErrAllPinned) {
			p.disk.release(id)
			return NilPage, nil, err
		}
		// Pool momentarily all pinned; readers' pins are transient, so
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
	f, err := p.pin(id, o, true)
	if err != nil {
		return nil, err
	}
	return f.data, nil
}

// pin is the shared request path behind GetObs, GetDecodedObs and
// ReadObs: it brings the page into the pool if needed, charges the
// request (hit or miss) to o and the pool's counters, and returns the
// frame with one pin taken, counted as held when the caller gets the
// bytes.
func (p *Pool) pin(id PageID, o *obs.Op, held bool) (*frame, error) {
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
	for attempt := 0; ; attempt++ {
		// Released by hand, charges made after it: a deferred unlock was a
		// measurable share of a hit.
		p.mu.Lock()
		if f := p.lookup(id); f != nil {
			if p.head != f {
				p.unlink(f)
				p.pushFront(f)
			}
			f.take(held)
			p.mu.Unlock()
			p.hits.Add(1)
			o.PoolHits(1)
			return f, nil
		}
		f, err := p.install(id, true, o)
		if err == nil {
			f.take(held)
			p.mu.Unlock()
			o.PoolMiss(uint32(id))
			return f, nil
		}
		p.mu.Unlock()
		if attempt >= evictRetries || !errors.Is(err, ErrAllPinned) {
			return nil, p.degrade(id, err, o)
		}
		// Every frame pinned: a read holds its pin only across a page
		// decode or a copy, so wait and retry the whole request (the page
		// may even arrive via a racer, turning the retry into a hit).
		evictWait(attempt)
	}
}

// DecodeFunc builds the immutable in-memory form of a page from its raw
// bytes, for the decode-once cache. The returned value is shared across
// every later request for the page while its frame stays resident and
// clean, so it must be immutable and must not alias data.
type DecodeFunc func(data []byte) (any, error)

// GetDecodedObs returns the page's decoded form: ViewObs, View.Decoded
// and Release in one call. The request is charged to o and the pool's
// counters exactly like GetObs, and the value does not alias the frame,
// so no pin is held on return and no Unpin is owed.
func (p *Pool) GetDecodedObs(id PageID, o *obs.Op, decode DecodeFunc) (any, error) {
	f, err := p.pin(id, o, false)
	if err != nil {
		return nil, err
	}
	d, err := View{p, f}.Decoded(decode)
	f.pins.Add(-1)
	return d, err
}

// View is a read pin on one page, taken by ViewObs: Data aliases the
// frame's bytes and Decoded serves its decode-once slot, both until
// Release drops the pin (without the pool latch). It is for a read that
// looks at the page in place and hands none of its bytes on.
type View struct {
	p *Pool
	f *frame
}

// ViewObs pins the page for a read in place. The request is charged to
// o and the pool's counters exactly like GetObs; the caller owes one
// Release.
func (p *Pool) ViewObs(id PageID, o *obs.Op) (View, error) {
	f, err := p.pin(id, o, false)
	if err != nil {
		return View{}, err
	}
	return View{p, f}, nil
}

// Data returns the page bytes; they must not be modified.
func (v View) Data() []byte { return v.f.data }

// Release drops the view's pin.
func (v View) Release() { v.f.pins.Add(-1) }

// Decoded returns the page's decoded form, building it with decode on
// the first request after the page came into the pool (or after its
// bytes changed) and serving the cached value on every later one — the
// warm path skips the binary decode entirely. The decode cache never
// changes which requests hit the disk, only whether a hit re-decodes.
// Callers that modify page bytes must be serialized against readers
// (the database's structural writer lock provides this); under that
// contract a request can never observe — or cache — a decoded value
// that is stale relative to the page's bytes.
func (v View) Decoded(decode DecodeFunc) (any, error) {
	if dp := v.f.decoded.Load(); dp != nil {
		v.p.decodeHits.Add(1)
		return *dp, nil
	}
	d, err := decode(v.f.data)
	if err != nil {
		return nil, err
	}
	dp := new(any)
	*dp = d
	v.f.decoded.Store(dp)
	v.p.decodeMisses.Add(1)
	return d, nil
}

// ReadObs copies len(dst) bytes of the page, from byte off, into dst. The
// request is charged to o and the pool's counters exactly like GetObs; the
// copy is taken under a pin dropped before returning, so no Unpin is owed.
// It is the segment table's read primitive (one record, or a cursor's
// page copy). Bytes a writer may be changing must lie outside the range
// asked for — the table asks only for records already visible to it.
func (p *Pool) ReadObs(id PageID, off int, dst []byte, o *obs.Op) error {
	f, err := p.pin(id, o, false)
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

// Discard drops the page's frame without writing it back, so the next
// request re-reads the disk — used after an external repair lands newer
// bytes under a stale frame. It reports false (and leaves the frame) if
// the page is pinned; a missing frame is a successful no-op.
func (p *Pool) Discard(id PageID) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	f := p.lookup(id)
	if f == nil {
		return true
	}
	if f.pins.Load() > 0 {
		return false
	}
	p.remove(f)
	return true
}

// Unpin releases one pin on the page, marking it dirty if the caller
// modified it. Unpinning a page that is not pinned panics: pin balance is
// a programmer invariant (pins are only handed out by Get/Allocate), not
// an I/O condition.
func (p *Pool) Unpin(id PageID, dirty bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f := p.lookup(id)
	if f == nil || f.held == 0 {
		panic(fmt.Sprintf("store: unpin of unpinned page %d", id))
	}
	if dirty {
		f.modified()
	}
	f.held--
	f.pins.Add(-1)
}

// MarkDirty flags a currently pinned page as modified. Marking a
// non-resident page panics (programmer error: the caller claims to hold a
// pin it does not have).
func (p *Pool) MarkDirty(id PageID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f := p.lookup(id)
	if f == nil {
		panic(fmt.Sprintf("store: mark dirty of non-resident page %d", id))
	}
	f.modified()
}

// Free returns the page to the disk free list. The page must be unpinned
// (freeing a pinned page panics — programmer error); a dirty page being
// freed is simply dropped without a write-back, since its contents are
// dead.
func (p *Pool) Free(id PageID) {
	p.mu.Lock()
	if f := p.lookup(id); f != nil {
		if f.pins.Load() > 0 {
			p.mu.Unlock()
			panic(fmt.Sprintf("store: free of pinned page %d", id))
		}
		p.remove(f)
	}
	p.mu.Unlock()
	p.disk.release(id)
}

// Flush writes back every dirty frame (without evicting), as done once at
// the end of a build so that sizes and write counts are comparable. A
// frame pinned by a Get or Allocate caller is skipped and stays dirty:
// that caller may be writing the bytes, so they are written by a later
// Flush or by the frame's eviction, both after its Unpin. Pins taken by
// GetDecodedObs, ReadObs and ViewObs only read, so a staged-mode
// checkpoint still writes a page a concurrent query is reading. The database flushes
// under its writer lock, when no write path holds a pin. On a write fault
// it stops and reports the error; the failed frame and any not yet
// visited stay dirty.
func (p *Pool) Flush() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.flushLocked()
}

func (p *Pool) flushLocked() error {
	for f := p.head; f != nil; f = f.next {
		if f.dirty && f.held == 0 {
			if err := p.disk.write(f.id, f.data); err != nil {
				return err
			}
			f.dirty = false
		}
	}
	return nil
}

// DropAll empties the pool, writing back dirty pages. Used between
// experiment phases to cold-start the cache. Dropping while any page is
// pinned panics (programmer error). No query read path holds a pin on
// return, but GetDecodedObs, ReadObs and a View hold one across their
// decode, copy or read, and write paths and Get/Allocate callers until Unpin, so DropAll
// must not run concurrently with queries or writes (DropUnpinned may). On
// a write fault the pool is left partially flushed and nothing is dropped.
func (p *Pool) DropAll() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.flushLocked(); err != nil {
		return err
	}
	for f := p.head; f != nil; f = f.next {
		if f.pins.Load() > 0 {
			panic(fmt.Sprintf("store: drop-all with pinned page %d", f.id))
		}
	}
	clear(p.frames)
	p.resident = 0
	p.head, p.tail = nil, nil
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
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.flushLocked(); err != nil {
		return 0, err
	}
	dropped := 0
	for f := p.head; f != nil; {
		next := f.next
		if f.pins.Load() == 0 {
			p.remove(f)
			dropped++
		}
		f = next
	}
	return dropped, nil
}

// install brings a page into the pool at the head of the LRU list,
// charging any eviction write-back to o. A full pool first evicts the
// least recently used unpinned frame — exactly the paper's policy — and
// reuses its page buffer; one with every frame pinned reports
// ErrAllPinned, which the request paths wait out and retry (evictWait).
// The latch must be held.
func (p *Pool) install(id PageID, readFromDisk bool, o *obs.Op) (*frame, error) {
	var buf []byte
	if p.resident >= p.capacity {
		victim := p.tail
		for victim != nil && victim.pins.Load() > 0 {
			victim = victim.prev
		}
		if victim == nil {
			return nil, ErrAllPinned
		}
		if victim.dirty {
			if err := p.disk.writeObs(victim.id, victim.data, o); err != nil {
				return nil, err
			}
			o.DiskWrite()
		}
		p.remove(victim)
		buf = victim.data
	} else {
		buf = make([]byte, p.disk.pageSize)
	}
	f := &frame{id: id, data: buf}
	if readFromDisk {
		if err := p.disk.readObs(id, f.data, o); err != nil {
			return nil, err
		}
	}
	if int(id) >= len(p.frames) {
		p.frames = append(p.frames, make([]*frame, int(id)+1-len(p.frames))...)
	}
	p.frames[id] = f
	p.resident++
	p.pushFront(f)
	return f, nil
}

// remove drops a frame from the page table and the LRU list. The latch
// must be held.
func (p *Pool) remove(f *frame) {
	p.unlink(f)
	p.frames[f.id] = nil
	p.resident--
}

func (p *Pool) pushFront(f *frame) {
	f.prev = nil
	f.next = p.head
	if p.head != nil {
		p.head.prev = f
	}
	p.head = f
	if p.tail == nil {
		p.tail = f
	}
}

func (p *Pool) unlink(f *frame) {
	if f.prev != nil {
		f.prev.next = f.next
	} else {
		p.head = f.next
	}
	if f.next != nil {
		f.next.prev = f.prev
	} else {
		p.tail = f.prev
	}
	f.prev, f.next = nil, nil
}
