package segdb

import (
	"errors"
	"fmt"
	"strings"
)

// IntegrityReport is the outcome of DB.CheckIntegrity: a few size facts
// plus every problem found. An empty Problems list means the database
// passed all checks.
type IntegrityReport struct {
	// Kind is the index kind that was checked.
	Kind Kind
	// Segments is the number of records in the segment table.
	Segments int
	// IndexPages and TablePages are the page counts of the two disks.
	IndexPages int
	TablePages int
	// PoolHits and PoolRequests snapshot the buffer pools' lifetime cache
	// behaviour (both disks combined, as in Metrics) as of the check;
	// PoolHitRatio is hits/requests, 0 for an untouched database.
	PoolHits     uint64
	PoolRequests uint64
	PoolHitRatio float64
	// Problems describes each violation found, in check order.
	Problems []string

	firstErr error
}

// Healthy reports whether every check passed.
func (r *IntegrityReport) Healthy() bool { return len(r.Problems) == 0 }

// Err returns nil for a healthy report; otherwise an error carrying all
// problems. When the first failing check produced a typed error (e.g. a
// *store.ChecksumError), errors.Is / errors.As unwrap to it.
func (r *IntegrityReport) Err() error {
	if r.Healthy() {
		return nil
	}
	summary := fmt.Sprintf("segdb: integrity check found %d problem(s): %s",
		len(r.Problems), strings.Join(r.Problems, "; "))
	if r.firstErr != nil {
		return fmt.Errorf("%s: %w", summary, r.firstErr)
	}
	return errors.New(summary)
}

func (r *IntegrityReport) add(err error) {
	if err == nil {
		return
	}
	r.Problems = append(r.Problems, err.Error())
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// CheckIntegrity runs every self-check the database supports and returns
// the combined report:
//
//   - both disks' free lists (in-range, duplicate-free page ids);
//   - both disks' page checksums (every in-use page matches its CRC32);
//   - the segment table's record count against the pages it holds;
//   - the index's own structural invariants (Validate);
//   - the index's segment count against the table's live slots (with
//     the staging tier's adds and tombstones in staged mode), which
//     reads no page.
//
// Checking reads pages and therefore perturbs the paper's disk-access and
// comparison counters; run it outside measured phases. With an active
// FaultPolicy the injected faults surface as problems like any real ones.
//
// CheckIntegrity takes the writer lock: it must not (and, enforced here,
// cannot) run concurrently with queries, whose in-flight pins and page
// traffic would make the structural checks race.
func (db *DB) CheckIntegrity() *IntegrityReport {
	db.mu.Lock()
	defer db.unlock()
	pre := db.Metrics()
	r := &IntegrityReport{
		Kind:         db.kind,
		Segments:     db.table.Len(),
		IndexPages:   db.pool.Disk().PageCount(),
		TablePages:   db.table.Disk().PageCount(),
		PoolHits:     pre.PoolHits,
		PoolRequests: pre.PoolRequests,
		PoolHitRatio: pre.HitRatio(),
	}
	if err := db.pool.Disk().CheckFreeList(); err != nil {
		r.add(fmt.Errorf("index disk: %w", err))
	}
	if err := db.pool.Disk().VerifyChecksums(); err != nil {
		r.add(fmt.Errorf("index disk: %w", err))
	}
	if err := db.table.Disk().CheckFreeList(); err != nil {
		r.add(fmt.Errorf("table disk: %w", err))
	}
	if err := db.table.Disk().VerifyChecksums(); err != nil {
		r.add(fmt.Errorf("table disk: %w", err))
	}
	r.add(db.table.CheckIntegrity())
	if err := db.index.Validate(&db.wop); err != nil {
		r.add(fmt.Errorf("%s: %w", db.index.Name(), err))
	}
	want := db.index.Len()
	if db.stagedMode() {
		want += db.mem.Live() - len(db.tombs)
	}
	if live := len(db.table.AppendLive(nil)); live != want {
		r.add(fmt.Errorf("segdb: table has %d live slots, the index answers for %d segments", live, want))
	}
	return r
}
