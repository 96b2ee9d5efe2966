package staging

import (
	"errors"
	"slices"
	"sort"

	"segdb/internal/core"
	"segdb/internal/geom"
	"segdb/internal/obs"
	"segdb/internal/seg"
	"segdb/internal/store"
)

// ErrImmutable is returned by mutation methods of a Merged view:
// snapshots are read-only by construction; writes go through the
// facade, which stages them and publishes a fresh snapshot.
var ErrImmutable = errors.New("staging: snapshot view is immutable")

// Merged is the read view of one published snapshot: the immutable base
// index of the current epoch, overlaid with the staged adds visible at
// the snapshot's version, minus the base segments tombstoned by staged
// deletes. It implements core.Index, so every generic query of the
// paper (incident-at, other-endpoint, enclosing-polygon, nested-loop
// overlay) is snapshot-consistent through the same code paths that
// serve a plain index.
//
// A Merged is immutable once published; any number of readers may use
// it concurrently while later snapshots are published and even while
// the base epoch is compacted away (the epoch pin held by the query
// keeps the base's pool alive).
type Merged struct {
	base       core.Index
	mem        *Mem
	visible    int      // staged adds visible at this snapshot
	version    uint64   // snapshot version (deletedAt horizon)
	tombs      []seg.ID // sorted ids of base segments deleted at this snapshot
	liveStaged int      // staged adds alive at this snapshot
}

// NewMerged builds the read view for one snapshot. tombs must be sorted
// ascending and must not be mutated afterwards (the facade copies on
// write); liveStaged is the precomputed count of staged adds alive at
// (visible, version).
func NewMerged(base core.Index, mem *Mem, visible int, version uint64, tombs []seg.ID, liveStaged int) *Merged {
	return &Merged{base: base, mem: mem, visible: visible, version: version, tombs: tombs, liveStaged: liveStaged}
}

// Version returns the snapshot's version (mutations visible).
func (m *Merged) Version() uint64 { return m.version }

// tombstoned reports whether a base segment is deleted at this
// snapshot.
func (m *Merged) tombstoned(id seg.ID) bool {
	n := len(m.tombs)
	if n == 0 {
		return false
	}
	i := sort.Search(n, func(i int) bool { return m.tombs[i] >= id })
	return i < n && m.tombs[i] == id
}

// Name implements core.Index.
func (m *Merged) Name() string { return m.base.Name() }

// Insert implements core.Index; snapshots are immutable.
func (m *Merged) Insert(seg.ID) error { return ErrImmutable }

// Delete implements core.Index; snapshots are immutable.
func (m *Merged) Delete(seg.ID) error { return ErrImmutable }

// WindowObs implements core.Index: the base traversal with tombstoned
// results suppressed, then the staged grid scan. Early stop from visit
// skips the staged half too.
func (m *Merged) WindowObs(r geom.Rect, visit func(id seg.ID, s geom.Segment) bool, o *obs.Op) error {
	stopped := false
	err := m.base.WindowObs(r, func(id seg.ID, s geom.Segment) bool {
		if m.tombstoned(id) {
			return true
		}
		if !visit(id, s) {
			stopped = true
			return false
		}
		return true
	}, o)
	if err != nil || stopped {
		return err
	}
	m.mem.Window(m.visible, m.version, r, visit, o)
	return nil
}

// NearestKAppendObs implements core.Index by merging two ranked
// streams: the base index asked for k plus one slot per tombstone (so
// suppressed results can never starve the answer), and a distance scan
// of the visible staged adds. Results are ordered by increasing
// distance, ties broken toward the base stream (whose own tie order the
// underlying index fixes) and then by id among staged results.
func (m *Merged) NearestKAppendObs(p geom.Point, k int, dst []core.NearestResult, o *obs.Op) ([]core.NearestResult, error) {
	if k <= 0 {
		return dst, nil
	}
	base, err := m.base.NearestKAppendObs(p, k+len(m.tombs), nil, o)
	if err != nil {
		return dst, err
	}
	if len(m.tombs) > 0 {
		kept := base[:0]
		for _, r := range base {
			if !m.tombstoned(r.ID) {
				kept = append(kept, r)
			}
		}
		base = kept
	}
	if len(base) > k {
		base = base[:k]
	}
	var staged []core.NearestResult
	m.mem.ForEachVisibleLive(m.visible, m.version, func(id seg.ID, s geom.Segment) {
		staged = append(staged, core.NearestResult{
			ID: id, Seg: s, DistSq: geom.DistSqPointSegment(p, s), Found: true,
		})
	})
	slices.SortFunc(staged, core.CompareNearest)
	bi, si := 0, 0
	for k > 0 && (bi < len(base) || si < len(staged)) {
		takeStaged := bi >= len(base) ||
			(si < len(staged) && staged[si].DistSq < base[bi].DistSq)
		if takeStaged {
			o.StagedHit()
			dst = append(dst, staged[si])
			si++
		} else {
			dst = append(dst, base[bi])
			bi++
		}
		k--
	}
	return dst, nil
}

// Table implements core.Index: the segment table is shared — staged
// adds are appended to it immediately, so geometry fetches for staged
// ids resolve exactly like base ids.
func (m *Merged) Table() *seg.Table { return m.base.Table() }

// DiskStats implements core.Index (the staging tier touches no pages).
func (m *Merged) DiskStats() store.Stats { return m.base.DiskStats() }

// NodeComps implements core.Index.
func (m *Merged) NodeComps() uint64 { return m.base.NodeComps() }

// SizeBytes implements core.Index (the memtable is not disk-resident).
func (m *Merged) SizeBytes() int64 { return m.base.SizeBytes() }

// Len implements core.Index: live base segments minus tombstones plus
// live staged adds.
func (m *Merged) Len() int { return m.base.Len() - len(m.tombs) + m.liveStaged }

// DropCache implements core.Index by delegating to the base index.
func (m *Merged) DropCache() error { return m.base.DropCache() }

// Validate implements core.Index by validating the base index (the
// memtable has no disk invariants to check).
func (m *Merged) Validate() error { return m.base.Validate() }
