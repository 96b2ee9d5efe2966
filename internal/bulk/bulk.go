// Package bulk is the shared front end of the bulk-load pipeline: a
// deterministic parallel sort plus small fan-out helpers that the
// per-index bottom-up builders (rstar.BulkLoad, rplus.BulkLoad,
// pmr.BulkLoad, grid.BulkLoad) share.
//
// The pipeline's contract is that parallelism never changes the output:
// all in-memory computation (sorting, partitioning, key generation) may
// fan out across GOMAXPROCS workers, but results are always assembled in
// a fixed order and every page write the builders issue happens on one
// goroutine in a deterministic sequence. A bulk build therefore produces
// a byte-identical disk image for any GOMAXPROCS or worker count —
// which the facade's determinism tests assert by comparing saved images.
package bulk

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"segdb/internal/geom"
	"segdb/internal/seg"
)

// Entry pairs a stored segment with its table ID — the unit the sort and
// partition phases operate on.
type Entry struct {
	ID  seg.ID
	Seg geom.Segment
}

// Fetch reads the segments for ids from the table in order. The scan is
// sequential: table pages are laid out in append order, so a 16-page
// pool already turns this into one read per table page.
func Fetch(table *seg.Table, ids []seg.ID) ([]Entry, error) {
	out := make([]Entry, len(ids))
	for i, id := range ids {
		s, err := table.Get(id)
		if err != nil {
			return nil, err
		}
		out[i] = Entry{ID: id, Seg: s}
	}
	return out, nil
}

// Workers returns the fan-out width of the pipeline's parallel phases.
func Workers() int { return runtime.GOMAXPROCS(0) }

// Parallel runs f(0) … f(n-1) across up to Workers goroutines drawing
// indices from one shared cursor, and waits for all of them — on the
// calling goroutine when one worker suffices. Iterations must be
// independent and write only to their own result slots, so assembly
// order (and with it the pipeline's output) stays deterministic however
// iterations interleave.
func Parallel(n int, f func(i int)) {
	workers := min(Workers(), n)
	if workers <= 1 {
		for i := range n {
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// minParallelSort is the slice length below which Sort stays sequential:
// goroutine startup costs more than the sort itself.
const minParallelSort = 4096

// Sort sorts s by cmp using a parallel merge sort. cmp must be a strict
// total order (no two distinct elements compare equal — tie-break on an
// ID or pointer field); under that contract the sorted sequence is
// unique, so the output is identical for any worker count. The builders
// rely on this for deterministic page images.
func Sort[T any](s []T, cmp func(a, b T) int) {
	n := len(s)
	w := Workers()
	if n < minParallelSort || w == 1 {
		slices.SortFunc(s, cmp)
		return
	}
	// Sort w even chunks in parallel, then merge adjacent pairs until
	// one run remains, ping-ponging between s and a scratch buffer.
	bounds := make([]int, w+1)
	for i := 0; i <= w; i++ {
		bounds[i] = i * n / w
	}
	Parallel(w, func(i int) {
		slices.SortFunc(s[bounds[i]:bounds[i+1]], cmp)
	})
	buf := make([]T, n)
	src, dst := s, buf
	for len(bounds) > 2 {
		pairs := (len(bounds) - 1) / 2
		next := make([]int, 0, pairs+2)
		next = append(next, 0)
		for j := 0; j < pairs; j++ {
			next = append(next, bounds[2*j+2])
		}
		odd := (len(bounds)-1)%2 == 1
		if odd {
			next = append(next, bounds[len(bounds)-1])
		}
		Parallel(pairs, func(j int) {
			lo, mid, hi := bounds[2*j], bounds[2*j+1], bounds[2*j+2]
			merge(src[lo:mid], src[mid:hi], dst[lo:hi], cmp)
		})
		if odd {
			lo := bounds[len(bounds)-2]
			copy(dst[lo:], src[lo:])
		}
		bounds = next
		src, dst = dst, src
	}
	if &src[0] != &s[0] {
		copy(s, src)
	}
}

// merge combines two sorted runs into out (len(out) == len(a)+len(b)).
func merge[T any](a, b, out []T, cmp func(a, b T) int) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if cmp(b[j], a[i]) < 0 {
			out[k] = b[j]
			j++
		} else {
			out[k] = a[i]
			i++
		}
		k++
	}
	copy(out[k:], a[i:])
	copy(out[k+len(a)-i:], b[j:])
}

// Gate bounds the extra goroutines a recursive fan-out (the PMR quadrant
// decomposition, the R+-tree k-d partition) may spawn: one slot per
// spare processor. Recursions write results into per-child slots and
// wait on their own WaitGroup, so the fan-out stays deterministic.
type Gate chan struct{}

// NewGate returns a gate admitting Workers-1 concurrent goroutines
// (the calling goroutine is the remaining worker).
func NewGate() Gate {
	n := Workers() - 1
	if n < 0 {
		n = 0
	}
	return make(Gate, n)
}

// Run executes f — on a fresh goroutine tracked by wg when the gate has
// a free slot, inline otherwise. The caller must wg.Wait() before
// reading anything f writes.
func (g Gate) Run(wg *sync.WaitGroup, f func()) {
	select {
	case g <- struct{}{}:
		wg.Add(1)
		go func() {
			defer func() {
				<-g
				wg.Done()
			}()
			f()
		}()
	default:
		f()
	}
}

// MortonKey returns the full-resolution Morton code of the segment's
// midpoint — the sort key of the Morton-order front end (PMR and grid
// partitioning touch mostly-contiguous memory when entries arrive in
// this order). Ties between segments sharing a midpoint cell must be
// broken by ID.
func MortonKey(s geom.Segment) uint64 {
	mid := geom.Point{
		X: int32((int64(s.P1.X) + int64(s.P2.X)) / 2),
		Y: int32((int64(s.P1.Y) + int64(s.P2.Y)) / 2),
	}
	lo, _ := geom.MakeCode(mid, geom.MaxDepth).MortonRange()
	return lo
}

// SortByMorton sorts entries into Morton (Z-) order of their midpoints,
// tie-broken by ID so the order is a strict total order.
func SortByMorton(entries []Entry) {
	Sort(entries, func(a, b Entry) int {
		ka, kb := MortonKey(a.Seg), MortonKey(b.Seg)
		switch {
		case ka < kb:
			return -1
		case ka > kb:
			return 1
		case a.ID < b.ID:
			return -1
		case a.ID > b.ID:
			return 1
		}
		return 0
	})
}
