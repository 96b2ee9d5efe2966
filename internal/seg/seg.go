// Package seg implements the disk-resident segment table shared by all
// three spatial indexes.
//
// Per §4 of the paper, the indexes themselves store only *pointers* into
// this table (the spatial index proper); the endpoints of each line segment
// live here, packed into pages behind a small buffer pool. A "segment
// comparison" in the paper's statistics is one fetch of a segment's
// geometry from this table, charged to the fetching operation's obs.Op.
package seg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"segdb/internal/geom"
	"segdb/internal/obs"
	"segdb/internal/store"
)

// ErrNotIndexed is returned by index Delete implementations when the
// segment is not present in the index.
var ErrNotIndexed = errors.New("segdb: segment not found in index")

// ID is a segment's index in the table, the pointer value stored inside
// the spatial indexes.
type ID uint32

// NilID marks "no segment".
const NilID = ^ID(0)

// recordSize is the on-page footprint of one segment: four int32
// coordinates.
const recordSize = 16

// Table is the append-only, disk-resident table of line segments.
//
// Concurrency: Get may be called from any number of goroutines (the pool
// underneath is latched and the fetch stamp is atomic). Append is
// a structural write and must be serialized with other writes by the
// caller (the facade's writer lock); because the table is append-only
// and the record count is atomic, snapshot readers may keep calling Get
// for already-visible ids while an Append is in flight — the new slot's
// bytes are disjoint from every visible record, and visibility of the
// new id is published by the caller's snapshot pointer, not by count.
// No read touches bytes past the records visible to it: a one-shot Get
// copies its own 16, and a Cursor copies a page's visible prefix — the
// records below the count it loaded before copying, whose bytes Append
// wrote before its count.Add — never the slot an Append may be filling.
// The dead-slot bitmap (Kill, Live, AppendLive), never on disk, is the
// writer's: Kill is a write like Append, and snapshot readers, which
// answer through their own view, never read it.
type Table struct {
	pool    *store.Pool
	perPage int
	count   atomic.Int64
	dead    []uint64 // bit id set once Kill(id); nil until the first Kill
	// stamp changes with every fetch that reaches the pool or that a
	// cursor answered from its copy (once per Close): a Cursor's copy
	// stands in for the pool only while it is unchanged. It counts
	// nothing anyone reads.
	stamp atomic.Uint64
}

// NewTable creates a segment table over its own simulated disk, fronted
// by an exact-LRU buffer pool of poolPages frames.
func NewTable(pageSize, poolPages int) *Table {
	return &Table{
		pool:    store.NewPool(store.NewDisk(pageSize), poolPages),
		perPage: pageSize / recordSize,
	}
}

// Len returns the number of segments in the table.
func (t *Table) Len() int { return int(t.count.Load()) }

// DiskStats returns the disk activity of the table's buffer pool.
func (t *Table) DiskStats() store.Stats { return t.pool.Stats() }

// SizeBytes returns the storage occupied by the table.
func (t *Table) SizeBytes() int64 { return t.pool.Disk().SizeBytes() }

// Disk exposes the table's underlying disk (integrity checks and fault
// injection attach here).
func (t *Table) Disk() *store.Disk { return t.pool.Disk() }

// Pool exposes the table's buffer pool (Scrub discards repaired pages
// through it).
func (t *Table) Pool() *store.Pool { return t.pool }

// DropCache empties the table's buffer pool (cold restart between
// experiment phases), flushing dirty frames first.
func (t *Table) DropCache() error { return t.pool.DropAll() }

// Flush writes the table's buffered dirty pages back to its disk.
func (t *Table) Flush() error { return t.pool.Flush() }

// Append stores a segment and returns its ID. Appending does not count as
// a segment comparison.
func (t *Table) Append(s geom.Segment) (ID, error) {
	count := int(t.count.Load())
	id := ID(count)
	pageIdx := count / t.perPage
	slot := count % t.perPage
	var (
		pid  store.PageID
		data []byte
		err  error
	)
	if slot == 0 {
		pid, data, err = t.pool.Allocate()
		if err != nil {
			return NilID, err
		}
		if int(pid) != pageIdx {
			return NilID, fmt.Errorf("seg: unexpected page id %d for page %d", pid, pageIdx)
		}
	} else {
		pid = store.PageID(pageIdx)
		data, err = t.pool.Get(pid)
		if err != nil {
			return NilID, err
		}
	}
	encode(data[slot*recordSize:], s)
	t.pool.Unpin(pid, true)
	t.count.Add(1)
	return id, nil
}

// Kill marks slot id dead: the writer's view no longer answers for it.
// The slot's record stays, as the table is append-only.
func (t *Table) Kill(id ID) {
	w := int(id >> 6)
	if w >= len(t.dead) {
		t.dead = append(t.dead, make([]uint64, w+1-len(t.dead))...)
	}
	t.dead[w] |= 1 << (id & 63)
}

// Live reports whether id is a slot of the table that was never killed.
func (t *Table) Live(id ID) bool {
	w := int(id >> 6)
	return int64(id) < t.count.Load() && (w >= len(t.dead) || t.dead[w]&(1<<(id&63)) == 0)
}

// AppendLive appends the live ids to dst in ascending order.
func (t *Table) AppendLive(dst []ID) []ID {
	for id := ID(0); int(id) < t.Len(); id++ {
		if t.Live(id) {
			dst = append(dst, id)
		}
	}
	return dst
}

// Get fetches a segment's endpoints, charging no operation.
func (t *Table) Get(id ID) (geom.Segment, error) {
	return t.GetObs(id, nil)
}

// GetObs is Get charging o one segment comparison and the underlying page
// request (the pool's own hit/miss counters see the request either way).
// It is the one-shot fetch, for a caller with a single id; a traversal
// opens a Cursor.
func (t *Table) GetObs(id ID, o *obs.Op) (geom.Segment, error) {
	if count := t.count.Load(); int64(id) >= count {
		return geom.Segment{}, errRange(id, count)
	}
	t.stamp.Add(1)
	o.SegComps(1)
	var rec [recordSize]byte
	if err := t.pool.ReadObs(store.PageID(int(id)/t.perPage), int(id)%t.perPage*recordSize, rec[:], o); err != nil {
		return geom.Segment{}, err
	}
	return decode(rec[:]), nil
}

func errRange(id ID, count int64) error {
	return fmt.Errorf("seg: id %d out of range (%d segments)", id, count)
}

// Cursor fetches segments for one traversal. It keeps a private copy of
// the last table page it read and answers a fetch for that page from the
// copy — the usual case: an index leaf's candidates were appended
// together. Every fetch is still one segment comparison and one pool
// request in every counter; one answered from the copy is a hit that
// skipped the pool, where re-touching the page served last does not move
// the LRU list.
//
// The page must still be the pool's last for that, so the copy is used
// only while the table's count and fetch stamp are what they were when it
// was taken: an Append, a one-shot Get or another cursor's Close (a
// traversal nested in this one's visitor) moves one, and the next fetch
// goes back to the pool, as every fetch did before cursors. Other
// goroutines' open cursors are not seen; the hit/miss split of concurrent
// requests was never repeatable.
//
// A copy, not a pin: a pin held from fetch to fetch would fail other
// readers with ErrAllPinned once cursors outnumber a pool's frames, and
// make DropAll panic. Only the page's visible prefix is copied (see
// Table). Fetches and hits are counted here and charged by Close — to the
// Op, and the hits to the pool — so a traversal closes its cursor before
// its counters are read. Not safe for concurrent use.
type Cursor struct {
	t       *Table
	o       *obs.Op
	lo      ID     // first id of the copied page
	n       uint32 // records copied; 0 when no page is held
	count   int64  // t.count when they were
	seen    uint64 // t.stamp when they were
	fetches uint64 // fetches not yet charged
	hits    uint64 // those of them answered from the copy
	buf     []byte
}

// cursorPool recycles cursors with their page buffers.
var cursorPool = sync.Pool{New: func() any { return new(Cursor) }}

// Cursor opens a cursor charging o (nil charges only the pool's hit
// counter). The caller must Close it.
func (t *Table) Cursor(o *obs.Op) *Cursor {
	c := cursorPool.Get().(*Cursor)
	c.t, c.o = t, o
	if size := t.perPage * recordSize; cap(c.buf) < size {
		c.buf = make([]byte, size)
	}
	return c
}

// Get is Table.GetObs through the cursor: same segment, same error, same
// charges (made at Close), cancellation consulted on every fetch.
func (c *Cursor) Get(id ID) (geom.Segment, error) {
	t := c.t
	count := t.count.Load()
	if int64(id) >= count {
		return geom.Segment{}, errRange(id, count)
	}
	c.fetches++
	if slot := uint32(id - c.lo); slot < c.n && count == c.count && t.stamp.Load() == c.seen {
		if err := c.o.Canceled(); err != nil {
			return geom.Segment{}, err
		}
		c.hits++
		return decode(c.buf[slot*recordSize:]), nil
	}
	// Another page, or the copy can no longer stand in for the pool: one
	// ordinary request, keeping the records visible now. A failed one
	// leaves no page held, so a quarantined page is asked for (and charged
	// as skipped) once per candidate on it.
	page := int(id) / t.perPage
	lo := page * t.perPage
	n := min(t.perPage, int(count)-lo)
	c.n = 0
	if err := t.pool.ReadObs(store.PageID(page), 0, c.buf[:n*recordSize], c.o); err != nil {
		return geom.Segment{}, err
	}
	c.lo, c.n, c.count, c.seen = ID(lo), uint32(n), count, t.stamp.Load()
	return decode(c.buf[(int(id)-lo)*recordSize:]), nil
}

// Close charges the cursor's fetches and recycles it.
func (c *Cursor) Close() {
	if c.fetches != 0 {
		c.t.stamp.Add(1)
		c.o.SegComps(c.fetches)
	}
	if c.hits != 0 {
		c.t.pool.CreditHits(c.hits)
		c.o.PoolHits(c.hits)
	}
	c.t, c.o, c.n, c.fetches, c.hits = nil, nil, 0, 0, 0
	cursorPool.Put(c)
}

func encode(b []byte, s geom.Segment) {
	binary.LittleEndian.PutUint32(b[0:], uint32(s.P1.X))
	binary.LittleEndian.PutUint32(b[4:], uint32(s.P1.Y))
	binary.LittleEndian.PutUint32(b[8:], uint32(s.P2.X))
	binary.LittleEndian.PutUint32(b[12:], uint32(s.P2.Y))
}

func decode(b []byte) geom.Segment {
	return geom.Segment{
		P1: geom.Point{
			X: int32(binary.LittleEndian.Uint32(b[0:])),
			Y: int32(binary.LittleEndian.Uint32(b[4:])),
		},
		P2: geom.Point{
			X: int32(binary.LittleEndian.Uint32(b[8:])),
			Y: int32(binary.LittleEndian.Uint32(b[12:])),
		},
	}
}

// WriteSnapshot serializes the table's durable state only — the record
// count followed by the disk image as it stands, without flushing the
// buffer pool. Crash harnesses use it to capture what a halted disk
// actually holds.
func (t *Table) WriteSnapshot(w io.Writer) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(t.count.Load())); err != nil {
		return err
	}
	_, err := t.pool.Disk().WriteTo(w)
	return err
}

// CheckIntegrity cross-checks the record count against the pages the disk
// actually holds.
func (t *Table) CheckIntegrity() error {
	count := int(t.count.Load())
	need := (count + t.perPage - 1) / t.perPage
	if t.pool.Disk().PagesInUse() < need {
		return fmt.Errorf("seg: table holds %d pages, %d records need %d", t.pool.Disk().PagesInUse(), count, need)
	}
	return nil
}

// RestoreTable reconstructs a table serialized by WriteSnapshot, fronted
// by a fresh buffer pool of poolPages frames.
func RestoreTable(r io.Reader, poolPages int) (*Table, error) {
	var count uint32
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return nil, fmt.Errorf("seg: reading table header: %w", err)
	}
	disk, err := store.ReadDiskFrom(r)
	if err != nil {
		return nil, err
	}
	if disk.PageSize() < recordSize {
		return nil, fmt.Errorf("seg: table image page size %d below record size %d", disk.PageSize(), recordSize)
	}
	t := &Table{
		pool:    store.NewPool(disk, poolPages),
		perPage: disk.PageSize() / recordSize,
	}
	t.count.Store(int64(count))
	if need := (int(count) + t.perPage - 1) / t.perPage; disk.PagesInUse() < need {
		return nil, fmt.Errorf("seg: table image has %d pages, %d records need %d", disk.PagesInUse(), count, need)
	}
	return t, nil
}
