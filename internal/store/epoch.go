// Epochs give snapshots copy-on-write identity. A query pins the epoch
// of the snapshot it starts against and runs to completion with no
// locking against writers; a compaction publishes its successor epoch
// atomically. Nothing is freed eagerly: the old
// generation's index, pool and disk are garbage-collected once its last
// reader drops the snapshot. Pin/Unpin are single atomic adds, so the
// read path pays two uncontended atomics per query — never a mutex.
package store

import "sync/atomic"

// Epoch is one snapshot generation. Readers Pin it for the duration of a
// query. The pin count is observability: tests and tools read it to see
// readers drain off a superseded generation.
type Epoch struct {
	id   uint64
	pins atomic.Int64
}

// NewEpoch creates a live epoch with the given generation number.
func NewEpoch(id uint64) *Epoch { return &Epoch{id: id} }

// ID returns the epoch's generation number.
func (e *Epoch) ID() uint64 { return e.id }

// Pins returns the number of readers currently pinning the epoch
// (observability; the value is stale the moment it returns).
func (e *Epoch) Pins() int64 { return e.pins.Load() }

// Pin takes one reference. Callers must validate that the epoch is still
// the published one *after* pinning (load pointer, Pin, re-load pointer)
// — a pin taken through a stale snapshot pointer is harmless, but the
// caller must Unpin and retry against the current snapshot.
func (e *Epoch) Pin() { e.pins.Add(1) }

// Unpin drops one reference.
func (e *Epoch) Unpin() { e.pins.Add(-1) }
