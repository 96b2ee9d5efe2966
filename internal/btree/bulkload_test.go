package btree

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"segdb/internal/store"
)

// sortedKeys returns n strictly increasing pseudo-random keys.
func sortedKeys(n int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]uint64, n)
	k := uint64(0)
	for i := range keys {
		k += uint64(rng.Intn(1000)) + 1
		keys[i] = k
	}
	return keys
}

func TestBulkLoadSizes(t *testing.T) {
	pool := store.NewPool(store.NewDisk(store.DefaultPageSize), store.DefaultPoolPages)
	leafCap := (store.DefaultPageSize - headerSize) / 8
	for _, n := range []int{0, 1, 2, leafCap - 1, leafCap, leafCap + 1, 2*leafCap + 1, 5000} {
		keys := sortedKeys(n, int64(n))
		bt, err := BulkLoad(pool, 0, 0, n, func(i int) (uint64, []byte) { return keys[i], nil })
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := bt.Validate(); err != nil {
			t.Fatalf("n=%d: validate: %v", n, err)
		}
		if bt.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, bt.Len())
		}
		var got []uint64
		if err := bt.Scan(0, ^uint64(0), func(k uint64) bool { got = append(got, k); return true }, nil); err != nil {
			t.Fatal(err)
		}
		if len(got) != n {
			t.Fatalf("n=%d: scan returned %d keys", n, len(got))
		}
		for i, k := range got {
			if k != keys[i] {
				t.Fatalf("n=%d: scan[%d] = %d, want %d", n, i, k, keys[i])
			}
		}
	}
}

func TestBulkLoadValues(t *testing.T) {
	pool := store.NewPool(store.NewDisk(store.DefaultPageSize), store.DefaultPoolPages)
	const n, valSize = 3000, 8
	keys := sortedKeys(n, 7)
	val := func(i int) []byte {
		var b [valSize]byte
		binary.LittleEndian.PutUint64(b[:], keys[i]^0xdeadbeef)
		return b[:]
	}
	bt, err := BulkLoad(pool, valSize, 0, n, func(i int) (uint64, []byte) { return keys[i], val(i) })
	if err != nil {
		t.Fatal(err)
	}
	if err := bt.Validate(); err != nil {
		t.Fatal(err)
	}
	i := 0
	err = bt.ScanValues(0, ^uint64(0), func(k uint64, v []byte) bool {
		if k != keys[i] || !bytes.Equal(v, val(i)) {
			t.Fatalf("entry %d: (%d, %x), want (%d, %x)", i, k, v, keys[i], val(i))
		}
		i++
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if i != n {
		t.Fatalf("scanned %d entries, want %d", i, n)
	}
}

// TestBulkLoadThenMutate verifies a bulk-loaded tree keeps accepting the
// incremental operations: inserts split packed leaves correctly and
// deletes rebalance them.
func TestBulkLoadThenMutate(t *testing.T) {
	pool := store.NewPool(store.NewDisk(store.DefaultPageSize), store.DefaultPoolPages)
	const n = 2000
	keys := sortedKeys(n, 11)
	bt, err := BulkLoad(pool, 0, 0, n, func(i int) (uint64, []byte) { return keys[i], nil })
	if err != nil {
		t.Fatal(err)
	}
	// Odd keys are absent (sortedKeys steps by >= 1 so gaps exist); insert
	// fresh keys between the existing ones.
	rng := rand.New(rand.NewSource(13))
	inserted := 0
	for i := 0; i < 500; i++ {
		k := keys[rng.Intn(n)] + 1
		switch err := bt.Insert(k); err {
		case nil:
			inserted++
		case ErrDuplicate:
		default:
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ {
		if err := bt.Delete(keys[3*i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := bt.Validate(); err != nil {
		t.Fatalf("validate after mutation: %v", err)
	}
}

func TestBulkLoadRejectsUnsortedKeys(t *testing.T) {
	pool := store.NewPool(store.NewDisk(store.DefaultPageSize), store.DefaultPoolPages)
	keys := []uint64{1, 2, 2, 3} // duplicate
	if _, err := BulkLoad(pool, 0, 0, len(keys), func(i int) (uint64, []byte) { return keys[i], nil }); err == nil {
		t.Fatal("duplicate keys accepted")
	}
	keys = []uint64{5, 4}
	if _, err := BulkLoad(pool, 0, 0, len(keys), func(i int) (uint64, []byte) { return keys[i], nil }); err == nil {
		t.Fatal("descending keys accepted")
	}
}

func TestChunkSizes(t *testing.T) {
	for n := 1; n < 400; n++ {
		for _, lim := range [][2]int{{127, 63}, {85, 43}, {4, 2}} {
			max, min := lim[0], lim[1]
			sizes := chunkSizes(n, max, min)
			total := 0
			for i, sz := range sizes {
				total += sz
				if sz > max {
					t.Fatalf("n=%d max=%d: chunk %d has %d", n, max, i, sz)
				}
				if len(sizes) > 1 && sz < min {
					t.Fatalf("n=%d max=%d min=%d: chunk %d has %d", n, max, min, i, sz)
				}
			}
			if total != n {
				t.Fatalf("n=%d: chunks sum to %d", n, total)
			}
		}
	}
}
