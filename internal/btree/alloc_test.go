package btree

import (
	"fmt"
	"testing"

	"segdb/internal/store"
)

// TestWritePathAllocatesNothing holds the write path's point: an insert
// that splits nothing and a delete that underflows nothing allocate no
// object, on v1 pages (edited in place) at value size 0 and 8 and on
// delta-coded leaves (decoded into the tree's scratch nodes), and a
// count over v1 pages right after a write allocates nothing. The pool
// holds the whole tree, so no request builds a frame.
func TestWritePathAllocatesNothing(t *testing.T) {
	for _, c := range []struct{ valSize, compression int }{{0, 0}, {8, 0}, {8, 1}} {
		t.Run(fmt.Sprintf("val%d/level%d", c.valSize, c.compression), func(t *testing.T) {
			tr, err := New(store.NewPool(store.NewDisk(1024), 256), c.valSize, c.compression)
			if err != nil {
				t.Fatal(err)
			}
			// Ascending inserts leave every leaf but the last half full.
			for k := uint64(0); k < 20000; k += 2 {
				if err := tr.InsertValue(k, []byte{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
					t.Fatal(err)
				}
			}
			if tr.Height() < 2 {
				t.Fatalf("height %d: the tree must have internal pages", tr.Height())
			}
			val := []byte{8, 7, 6, 5, 4, 3, 2, 1}
			key := uint64(5001)
			insert := testing.AllocsPerRun(100, func() {
				if err := tr.InsertValue(key, val); err != nil {
					t.Fatal(err)
				}
				if err := tr.Delete(key); err != nil {
					t.Fatal(err)
				}
			})
			h := tr.Height()
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
			if insert != 0 || tr.Height() != h {
				t.Errorf("insert+delete allocated %.1f objects per run, want 0", insert)
			}
			// A rejected write allocates nothing either.
			rejected := testing.AllocsPerRun(100, func() {
				if tr.InsertValue(5000, val) != ErrDuplicate || tr.Delete(5001) != ErrNotFound {
					t.Fatal("want ErrDuplicate and ErrNotFound")
				}
			})
			if rejected != 0 {
				t.Errorf("rejected writes allocated %.1f objects per run, want 0", rejected)
			}
			if c.compression > 0 {
				return
			}
			// v1 pages are read in place: counting keys right after a
			// write, as the PMR quadtree does, decodes nothing.
			read := testing.AllocsPerRun(100, func() {
				if err := tr.InsertValue(key, val); err != nil {
					t.Fatal(err)
				}
				if n, err := tr.CountRange(4000, 6000, nil); err != nil || n != 1001 {
					t.Fatalf("CountRange = %d, %v; want 1001", n, err)
				}
				if err := tr.Delete(key); err != nil {
					t.Fatal(err)
				}
			})
			if read != 0 {
				t.Errorf("insert+count+delete allocated %.1f objects per run, want 0", read)
			}
		})
	}
}
