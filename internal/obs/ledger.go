package obs

import (
	"sync/atomic"
	"time"
)

// Ledger totals the comparisons of every operation folded into it — a
// database's segment and node comparison counts. Each operation folds
// once, when it is done, so the ledger is the sum of the operations'
// Stats by construction. Safe for concurrent use; the zero value is
// ready.
type Ledger struct {
	segComps  atomic.Uint64
	nodeComps atomic.Uint64
}

// Fold adds one finished operation's comparisons.
func (l *Ledger) Fold(st Stats) {
	l.segComps.Add(st.SegComps)
	l.nodeComps.Add(st.NodeComps)
}

// Comps returns the segment and node comparisons folded so far.
func (l *Ledger) Comps() (seg, node uint64) { return l.segComps.Load(), l.nodeComps.Load() }

// KindProfile accumulates one query kind's profile: how many queries
// completed, how many of them failed, and histograms of their wall time
// and disk accesses. All fields are atomic, so queries record into it
// concurrently with no extra locking. The zero value is ready to use.
type KindProfile struct {
	count   atomic.Uint64
	errors  atomic.Uint64
	latency Histogram // wall time, microseconds
	disk    Histogram // disk accesses (reads + write-backs)
}

// Record folds one finished query into the profile.
func (p *KindProfile) Record(wall time.Duration, disk uint64, err error) {
	p.count.Add(1)
	if err != nil {
		p.errors.Add(1)
	}
	p.latency.Record(uint64(wall / time.Microsecond))
	p.disk.Record(disk)
}

// KindSnapshot is one query kind's aggregate in a profile snapshot.
type KindSnapshot struct {
	// Kind is the query kind name ("window", "nearestk", ...), the same
	// string a Tracer sees in QueryInfo.Kind.
	Kind string
	// Count is the number of completed queries of this kind, Errors the
	// subset that returned a non-nil error (including context
	// cancellation).
	Count, Errors uint64
	// LatencyMicros is the distribution of per-query wall time in
	// microseconds, in logarithmic buckets.
	LatencyMicros HistogramSnapshot
	// DiskAccesses is the distribution of per-query disk accesses
	// (reads plus eviction write-backs), the paper's primary currency.
	DiskAccesses HistogramSnapshot
}

// Snapshot returns one entry per profile that has completed at least one
// query, in slice order, named by the matching entry of names. Each
// entry is internally consistent to within the queries completing
// during the call.
func Snapshot(profiles []KindProfile, names []string) []KindSnapshot {
	var out []KindSnapshot
	for i := range profiles {
		p := &profiles[i]
		n := p.count.Load()
		if n == 0 {
			continue
		}
		out = append(out, KindSnapshot{
			Kind:          names[i],
			Count:         n,
			Errors:        p.errors.Load(),
			LatencyMicros: p.latency.Snapshot(),
			DiskAccesses:  p.disk.Snapshot(),
		})
	}
	return out
}
