package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"segdb/internal/store"
)

// twin drives two trees of the same geometry over separate disks with
// one operation stream: cur through the tree's write path, ref through
// the reference write path of reference_test.go.
type twin struct {
	cur, ref *Tree
	live     []uint64 // sorted model of the stored keys
}

// Small pages and a small pool: a few hundred keys give a three-level
// tree, and every operation evicts.
const twinPageSize, twinPoolPages = 256, 6

func newTwin(t testing.TB, valSize, compression int) *twin {
	t.Helper()
	mk := func() *Tree {
		tr, err := NewWithOptions(store.NewPool(store.NewDisk(twinPageSize), twinPoolPages), valSize, compression)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.pool.Flush(); err != nil { // apply flushes before each op
			t.Fatal(err)
		}
		return tr
	}
	return &twin{cur: mk(), ref: mk()}
}

// twinOp is one decoded operation.
type twinOp struct {
	del bool
	key uint64
	val [8]byte
}

// decodeTwinOps turns fuzz bytes into operations, four bytes each: kind,
// cluster and a 16-bit offset. Keys fall into eight clusters whose
// spacing differs (so delta-coded leaves see one- to three-byte deltas);
// half the kinds insert a fresh key, one re-inserts a stored key (a
// duplicate), two delete a stored key counted from the low or the high
// end (so trees shrink through borrows, merges and root collapse) and one
// deletes a key that is most likely absent. Values are packable 14-bit words unless the kind's high bit
// asks otherwise.
func decodeTwinOps(data []byte, live func() []uint64, apply func(twinOp)) {
	for ; len(data) >= 4; data = data[4:] {
		kind, cluster, off := data[0], data[1], binary.LittleEndian.Uint16(data[2:])
		op := twinOp{key: uint64(cluster%8)<<40 | uint64(off)<<(cluster/8%4*4)}
		mask := uint16(1<<14 - 1)
		if kind >= 128 {
			mask = 0xffff
		}
		binary.LittleEndian.PutUint16(op.val[0:], off&mask)
		binary.LittleEndian.PutUint16(op.val[2:], uint16(cluster)&mask)
		binary.LittleEndian.PutUint16(op.val[4:], (off^0x5555)&mask)
		binary.LittleEndian.PutUint16(op.val[6:], uint16(kind)&mask)
		keys := live()
		switch kind % 8 {
		case 4: // duplicate
			if len(keys) > 0 {
				op.key = keys[int(off)%len(keys)]
			}
		case 5, 6: // delete a stored key
			op.del = true
			if len(keys) > 0 {
				op.key = keys[int(off)%len(keys)]
			}
		case 7: // delete, most likely absent
			op.del = true
		}
		apply(op)
	}
}

// apply runs op on both trees and checks that they agree: the same
// error, the same bytes on every page, the same pool requests, hits,
// reads and writes, no pin left behind, and a valid tree. A rejected
// operation (ErrDuplicate, ErrNotFound) must change no page byte.
func (w *twin) apply(t testing.TB, step int, op twinOp) {
	t.Helper()
	before := w.image(t, w.cur)
	var errCur, errRef error
	if op.del {
		errCur, errRef = w.cur.Delete(op.key), w.ref.refDelete(op.key)
	} else {
		errCur, errRef = w.cur.InsertValue(op.key, op.val[:]), w.ref.refInsertValue(op.key, op.val[:])
	}
	if !errors.Is(errCur, errRef) || (errCur == nil) != (errRef == nil) {
		t.Fatalf("step %d %+v: error %v, reference %v", step, op, errCur, errRef)
	}
	switch {
	case errCur == nil && op.del:
		i, found := slices.BinarySearch(w.live, op.key)
		if !found {
			t.Fatalf("step %d: deleted key %d the model does not hold", step, op.key)
		}
		w.live = slices.Delete(w.live, i, i+1)
	case errCur == nil:
		i, _ := slices.BinarySearch(w.live, op.key)
		w.live = slices.Insert(w.live, i, op.key)
	case errors.Is(errCur, ErrDuplicate), errors.Is(errCur, ErrNotFound):
	default:
		t.Fatalf("step %d %+v: %v", step, op, errCur)
	}
	// Validate reads both trees, so their pools keep seeing the same
	// requests.
	for _, tr := range []*Tree{w.cur, w.ref} {
		if err := tr.Validate(); err != nil {
			t.Fatalf("step %d %+v: %v", step, op, err)
		}
	}
	cur, ref := w.image(t, w.cur), w.image(t, w.ref)
	if errCur != nil && !bytes.Equal(cur, before) {
		t.Fatalf("step %d %+v: rejected with %v but changed page bytes", step, op, errCur)
	}
	if !bytes.Equal(cur, ref) {
		t.Fatalf("step %d %+v: disk images differ from the reference's (%s)", step, op, firstDiff(cur, ref))
	}
	if sc, sr := w.cur.pool.Stats(), w.ref.pool.Stats(); sc != sr {
		t.Fatalf("step %d %+v: pool stats %+v, reference %+v", step, op, sc, sr)
	}
	if mc, mr := w.cur.PersistMeta(), w.ref.PersistMeta(); mc != mr {
		t.Fatalf("step %d %+v: root/height/count %v, reference %v", step, op, mc, mr)
	}
	if p := w.cur.pool.Pinned(); p != 0 {
		t.Fatalf("step %d %+v: %d pins held after the operation", step, op, p)
	}
	if w.cur.Len() != len(w.live) {
		t.Fatalf("step %d: Len %d, model %d", step, w.cur.Len(), len(w.live))
	}
}

// image flushes the tree's pool and returns its whole disk.
func (w *twin) image(t testing.TB, tr *Tree) []byte {
	t.Helper()
	if err := tr.pool.Flush(); err != nil {
		t.Fatal(err)
	}
	d := tr.pool.Disk()
	out := make([]byte, 0, d.PageCount()*d.PageSize())
	for id := 0; id < d.PageCount(); id++ {
		p, err := d.RawPage(store.PageID(id))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p...)
	}
	return out
}

func firstDiff(a, b []byte) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d vs %d bytes", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Sprintf("page %d byte %d", i/twinPageSize, i%twinPageSize)
		}
	}
	return "equal"
}

// runTwinOps plays data at value size 0 and 8 × compression 0 and 1.
func runTwinOps(t *testing.T, data []byte) {
	for _, valSize := range []int{0, 8} {
		for _, compression := range []int{0, 1} {
			t.Run(fmt.Sprintf("val%d/level%d", valSize, compression), func(t *testing.T) {
				w := newTwin(t, valSize, compression)
				step := 0
				decodeTwinOps(data, func() []uint64 { return w.live }, func(op twinOp) {
					w.apply(t, step, op)
					step++
				})
			})
		}
	}
}

// growShrink is a seed that fills the trees to three levels (two for
// delta-coded leaves) with clustered keys and then empties them, so
// every split, borrow, merge and root collapse path runs.
func growShrink(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	var out []byte
	op := func(kind byte) {
		out = append(out, kind|byte(rng.Intn(2))<<7, byte(rng.Intn(32)), byte(rng.Intn(256)), byte(rng.Intn(4)))
	}
	for i := 0; i < n; i++ {
		op([]byte{0, 1, 2, 3, 4, 7}[rng.Intn(6)])
	}
	for i := 0; i < n*2; i++ {
		op([]byte{5, 6, 0, 4, 7}[rng.Intn(5)])
	}
	return out
}

// drainEnds is a seed that fills one dense cluster in random order, so
// leaves sit between half and full, and then deletes from the low end
// and the high end: the end leaves underflow beside full siblings, which
// must lend rather than merge.
func drainEnds(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	var out []byte
	for i := 0; i < n; i++ {
		out = append(out, 0, 0, byte(rng.Intn(256)), byte(rng.Intn(8)))
	}
	for i := 0; i < n; i++ {
		out = append(out, 5+byte(i/(n/4)%2), 0, 0, 0)
	}
	return out
}

// TestWritePathMatchesReference plays grow-then-shrink streams through
// the page-view write path and the reference decode/edit/encode one.
func TestWritePathMatchesReference(t *testing.T) {
	runTwinOps(t, growShrink(1, 900))
	runTwinOps(t, drainEnds(1, 1500))
}

// FuzzBTreeOps holds the write path to the reference over arbitrary
// operation streams (see decodeTwinOps and twin.apply).
func FuzzBTreeOps(f *testing.F) {
	f.Add(growShrink(2, 150))
	f.Add(drainEnds(2, 300))
	f.Add([]byte{0, 0, 1, 0, 0, 0, 2, 0, 5, 0, 0, 0, 7, 3, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Long streams add time, not paths: TestWritePathMatchesReference
		// plays those.
		runTwinOps(t, data[:min(len(data), 4<<10)])
	})
}
