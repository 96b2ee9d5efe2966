// Package staging is the in-memory LSM tier of staged-ingest mode: a
// memtable absorbing Add/Delete so writers never rebuild (or even
// touch) the disk-resident index inline, plus a merged view (Merged)
// that answers every query as base-snapshot ∪ staged − tombstones.
//
// The memtable is built for single-writer / many-lock-free-readers use.
// The writer (serialized by the facade's writer lock) appends entries
// into fixed-size chunks and publishes visibility by storing a new
// snapshot pointer in the facade — a release store that orders every
// plain write before it. Readers receive (visible, version) through
// that snapshot and only ever touch entries below the visible count, so
// no entry field is ever read and written concurrently except the
// atomic deletedAt mark. The chunk list and the per-cell index lists
// are themselves published through atomic pointers (copy-on-append), so
// a reader holding yesterday's list simply sees yesterday's prefix.
//
// Entries are appended in segment-id order (staged ids are allocated by
// the append-only segment table), so the memtable is a sorted run over
// segment ids — the writer locates an entry by binary search or the
// id map, and compaction emits ids in order without sorting the staged
// half. A coarse uniform grid (gridN × gridN cells over the world)
// accelerates spatial queries: each entry is linked into every cell its
// bounding box overlaps, and window scans deduplicate by reporting a
// segment only from the first overlapping cell of its clipped extent.
package staging

import (
	"sync/atomic"

	"segdb/internal/geom"
	"segdb/internal/obs"
	"segdb/internal/seg"
)

const (
	chunkShift = 8
	chunkSize  = 1 << chunkShift

	// gridBits picks the staging grid resolution: 2^gridBits cells per
	// side, each covering WorldSize / 2^gridBits world units.
	gridBits = 5
	gridN    = 1 << gridBits
	// WorldSize is 2^MaxDepth, so shifting a coordinate by
	// MaxDepth-gridBits yields its cell.
	cellShift = geom.MaxDepth - gridBits
)

// entry is one staged add. deletedAt is the snapshot version whose
// Delete killed it (0 = live): a snapshot at version v sees the entry
// iff deletedAt == 0 || deletedAt > v.
type entry struct {
	id        seg.ID
	s         geom.Segment
	deletedAt atomic.Uint64
}

type chunk struct {
	entries [chunkSize]entry
}

// cell is one staging-grid cell: the memtable indexes (in append order)
// of entries whose bounding box overlaps it, published copy-on-append.
type cell struct {
	idxs atomic.Pointer[[]int32]
}

// Mem is the staged-ingest memtable. The zero value is not usable; use
// NewMem.
type Mem struct {
	chunks atomic.Pointer[[]*chunk]

	// Writer-side state (guarded by the facade's writer lock).
	n     int            // staged adds appended
	live  int            // staged adds not yet deleted
	byID  map[seg.ID]int // memtable index by segment id
	cells [gridN * gridN]cell
}

// NewMem returns an empty memtable.
func NewMem() *Mem {
	m := &Mem{byID: make(map[seg.ID]int)}
	m.chunks.Store(new([]*chunk))
	return m
}

// Len returns the number of staged adds (writer-side; callers hold the
// writer lock).
func (m *Mem) Len() int { return m.n }

// Live returns the number of staged adds not yet deleted (writer-side).
func (m *Mem) Live() int { return m.live }

// cellOf maps a world coordinate to its staging-grid cell index,
// clamped to the grid.
func cellOf(x int32) int {
	if x < 0 {
		return 0
	}
	c := int(x >> cellShift)
	if c >= gridN {
		return gridN - 1
	}
	return c
}

// Add appends a staged segment. Writer-side: the entry becomes visible
// to readers only when the facade publishes a snapshot with a larger
// visible count (the release store that orders these plain writes).
func (m *Mem) Add(id seg.ID, s geom.Segment) {
	idx := m.n
	chunks := *m.chunks.Load()
	if idx>>chunkShift >= len(chunks) {
		grown := make([]*chunk, len(chunks)+1)
		copy(grown, chunks)
		grown[len(chunks)] = new(chunk)
		m.chunks.Store(&grown)
		chunks = grown
	}
	e := &chunks[idx>>chunkShift].entries[idx&(chunkSize-1)]
	e.id = id
	e.s = s
	e.deletedAt.Store(0)
	m.byID[id] = idx
	b := s.Bounds()
	cx0, cx1 := cellOf(b.Min.X), cellOf(b.Max.X)
	cy0, cy1 := cellOf(b.Min.Y), cellOf(b.Max.Y)
	for cy := cy0; cy <= cy1; cy++ {
		for cx := cx0; cx <= cx1; cx++ {
			m.cells[cy*gridN+cx].append(int32(idx))
		}
	}
	m.n++
	m.live++
}

// append links one memtable index into the cell, publishing the grown
// list with a release store so readers either see the old prefix or the
// initialized new element.
func (c *cell) append(idx int32) {
	old := c.idxs.Load()
	var ns []int32
	if old != nil && len(*old) < cap(*old) {
		ns = (*old)[: len(*old)+1 : cap(*old)]
	} else {
		capn := 8
		if old != nil {
			capn = 2 * cap(*old)
		}
		ns = make([]int32, 0, capn)
		if old != nil {
			ns = append(ns, *old...)
		}
		ns = ns[:len(ns)+1]
	}
	ns[len(ns)-1] = idx
	c.idxs.Store(&ns)
}

// Delete marks the staged add for id dead as of version. It reports
// false when id is not a live staged add (the caller then tombstones a
// base segment). Writer-side.
func (m *Mem) Delete(id seg.ID, version uint64) bool {
	idx, ok := m.byID[id]
	if !ok {
		return false
	}
	e := m.at(idx)
	if e.deletedAt.Load() != 0 {
		return false
	}
	e.deletedAt.Store(version)
	m.live--
	return true
}

// at returns the entry at memtable index i.
func (m *Mem) at(i int) *entry {
	chunks := *m.chunks.Load()
	return &chunks[i>>chunkShift].entries[i&(chunkSize-1)]
}

// visibleLive reports whether the entry is a live staged add for a
// snapshot seeing `visible` adds at `version`.
func visibleLive(e *entry, version uint64) bool {
	d := e.deletedAt.Load()
	return d == 0 || d > version
}

// Window visits every visible, live staged segment whose geometry
// intersects r, charging one StagedHit per result. It returns false if
// visit stopped the scan early. Safe for any number of concurrent
// readers against one writer.
func (m *Mem) Window(visible int, version uint64, r geom.Rect, visit func(id seg.ID, s geom.Segment) bool, o *obs.Op) bool {
	if visible == 0 {
		return true
	}
	chunks := *m.chunks.Load()
	cx0, cx1 := cellOf(r.Min.X), cellOf(r.Max.X)
	cy0, cy1 := cellOf(r.Min.Y), cellOf(r.Max.Y)
	for cy := cy0; cy <= cy1; cy++ {
		for cx := cx0; cx <= cx1; cx++ {
			lp := m.cells[cy*gridN+cx].idxs.Load()
			if lp == nil {
				continue
			}
			for _, idx := range *lp {
				// Cell lists grow in append order, so the first index past
				// the snapshot's horizon ends the cell.
				if int(idx) >= visible {
					break
				}
				e := &chunks[idx>>chunkShift].entries[idx&(chunkSize-1)]
				if !visibleLive(e, version) {
					continue
				}
				b := e.s.Bounds()
				// Report a segment only from the first overlapping cell of
				// its clipped extent, so spanning segments are not repeated.
				if max(cellOf(b.Min.X), cx0) != cx || max(cellOf(b.Min.Y), cy0) != cy {
					continue
				}
				if !r.IntersectsSegment(e.s) {
					continue
				}
				o.StagedHit()
				if !visit(e.id, e.s) {
					return false
				}
			}
		}
	}
	return true
}

// ForEachVisibleLive visits every staged add visible and live at
// (visible, version), in segment-id order. Used by the merged nearest-k
// scan; concurrent-reader safe.
func (m *Mem) ForEachVisibleLive(visible int, version uint64, visit func(id seg.ID, s geom.Segment)) {
	if visible == 0 {
		return
	}
	chunks := *m.chunks.Load()
	for i := 0; i < visible; i++ {
		e := &chunks[i>>chunkShift].entries[i&(chunkSize-1)]
		if visibleLive(e, version) {
			visit(e.id, e.s)
		}
	}
}
