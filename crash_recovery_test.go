package segdb

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// crashOp is one step of the torture workload: an Add, a Delete of an
// earlier segment, or a mid-workload Checkpoint (a non-mutation, so the
// sweep also crosses the checkpoint protocol's own write points).
type crashOp struct {
	ckpt bool
	del  bool
	id   SegmentID
	seg  Segment
}

// crashOps builds a deterministic mixed workload over nAdds segments:
// mostly adds, a delete of an earlier id every ninth add, and one
// checkpoint halfway through.
func crashOps(nAdds int, seed int64) []crashOp {
	segs := crashSegments(nAdds, seed)
	var ops []crashOp
	deleted := make(map[SegmentID]bool)
	for i, s := range segs {
		ops = append(ops, crashOp{seg: s})
		if i%9 == 8 {
			// IDs are assigned sequentially from 1, so (i+1)/2 always
			// names a segment added earlier in the workload.
			target := SegmentID((i + 1) / 2)
			if target >= 1 && !deleted[target] {
				deleted[target] = true
				ops = append(ops, crashOp{del: true, id: target})
			}
		}
		if i == nAdds/2 {
			ops = append(ops, crashOp{ckpt: true})
		}
	}
	return ops
}

func (op crashOp) apply(db *DB) error {
	switch {
	case op.ckpt:
		return db.Checkpoint()
	case op.del:
		return db.Delete(op.id)
	default:
		_, err := db.Add(op.seg)
		return err
	}
}

// crashReplayPrefix builds a fresh WAL-less database of the given kind
// and applies the first k mutations of the workload (checkpoints are
// no-ops without a WAL and are skipped).
func crashReplayPrefix(t *testing.T, kind Kind, ops []crashOp, k uint64) *DB {
	t.Helper()
	db, err := Open(kind)
	if err != nil {
		t.Fatalf("Open(%v): %v", kind, err)
	}
	var applied uint64
	for _, op := range ops {
		if op.ckpt {
			continue
		}
		if applied == k {
			break
		}
		if err := op.apply(db); err != nil {
			t.Fatalf("clean replay of %v mutation %d: %v", kind, applied, err)
		}
		applied++
	}
	if applied != k {
		t.Fatalf("workload has only %d mutations, recovery reported seq %d", applied, k)
	}
	return db
}

// crashFingerprint captures every paper query's (result, error) pair as
// one comparable string: three windows, a 3-nearest probe, incident and
// other-endpoint traversals, and an enclosing-polygon walk.
func crashFingerprint(t *testing.T, db *DB, probe []Segment) string {
	t.Helper()
	var b strings.Builder
	for _, r := range []Rect{World(), RectOf(100, 100, 6000, 6000), RectOf(7000, 1000, 13000, 9000)} {
		var ids []SegmentID
		err := db.Window(r, func(id SegmentID, _ Segment) bool { ids = append(ids, id); return true })
		slices.Sort(ids)
		fmt.Fprintf(&b, "win=%v err=%v\n", ids, err)
	}
	for _, p := range []Point{probe[0].P1, probe[7].P2, Pt(8000, 8000)} {
		nr, _, err := db.NearestKAppendCtx(context.Background(), p, 3, nil)
		fmt.Fprintf(&b, "near=%v err=%v\n", nr, err)
		var inc []SegmentID
		_, ierr := db.IncidentAtCtx(context.Background(), p, func(id SegmentID, _ Segment) bool { inc = append(inc, id); return true })
		slices.Sort(inc)
		fmt.Fprintf(&b, "inc=%v err=%v\n", inc, ierr)
		poly, _, perr := db.EnclosingPolygonCtx(context.Background(), p)
		fmt.Fprintf(&b, "poly=%v err=%v\n", poly, perr)
	}
	var oth []SegmentID
	_, err := db.OtherEndpointCtx(context.Background(), 1, probe[0].P1, func(id SegmentID, _ Segment) bool { oth = append(oth, id); return true })
	slices.Sort(oth)
	fmt.Fprintf(&b, "oth=%v err=%v\n", oth, err)
	return b.String()
}

// TestCrashRecoveryTorture is the durability acceptance test: for every
// index kind, run a mixed workload on a crashing WAL filesystem, crash
// it after N writes for a sweep of N covering every phase (including
// the mid-workload checkpoint), recover from the surviving files alone,
// and require (a) a healthy integrity check and (b) all five paper
// queries identical to a clean sequential replay of exactly the
// committed mutation prefix.
func TestCrashRecoveryTorture(t *testing.T) {
	const nAdds = 48
	const seed = 77
	ops := crashOps(nAdds, seed)
	probe := crashSegments(nAdds, seed)

	for _, kind := range crashKinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			// Crash-free run bounds the sweep: workload writes only
			// (SetCrashAfterWrites(0, ...) leaves crashing disabled but
			// resets the write counter after Open's initial checkpoint).
			clean := NewMemWALFS()
			db, err := Open(kind, WithWALFS(clean))
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			clean.SetCrashAfterWrites(0, seed)
			for _, op := range ops {
				if err := op.apply(db); err != nil {
					t.Fatalf("crash-free workload: %v", err)
				}
			}
			total := clean.Writes()
			if total == 0 {
				t.Fatal("workload produced no WAL writes")
			}

			stride := uint64(1)
			if testing.Short() {
				stride = total / 25
				if stride == 0 {
					stride = 1
				}
			}

			// Reference fingerprints, cached by committed-prefix length:
			// many crash points recover to the same mutation count.
			refFP := make(map[uint64]string)
			for n := uint64(1); n <= total; n += stride {
				wfs := NewMemWALFS()
				db, err := Open(kind, WithWALFS(wfs))
				if err != nil {
					t.Fatalf("n=%d: Open: %v", n, err)
				}
				wfs.SetCrashAfterWrites(n, int64(n)*31+seed)
				var opErr error
				for _, op := range ops {
					if opErr = op.apply(db); opErr != nil {
						break
					}
				}
				if opErr != nil && !errors.Is(opErr, ErrWALCrash) {
					t.Fatalf("n=%d: workload died with a non-crash error: %v", n, opErr)
				}
				if opErr == nil && wfs.Crashed() {
					// The crash tore the very last write at full length:
					// the workload completed, the filesystem is still down.
					t.Logf("n=%d: crash fired on the final write", n)
				}

				wfs.Reboot()
				rec, rep, err := RecoverFS(wfs)
				if err != nil {
					t.Fatalf("n=%d: RecoverFS: %v", n, err)
				}
				if r := rec.CheckIntegrity(); !r.Healthy() {
					t.Fatalf("n=%d: recovered db unhealthy: %v", n, r.Err())
				}
				k := rep.Seq
				want, ok := refFP[k]
				if !ok {
					want = crashFingerprint(t, crashReplayPrefix(t, kind, ops, k), probe)
					refFP[k] = want
				}
				if got := crashFingerprint(t, rec, probe); got != want {
					t.Fatalf("n=%d: recovered queries diverge from clean replay of %d mutations:\nrecovered:\n%s\nclean:\n%s", n, k, got, want)
				}
			}
		})
	}
}
