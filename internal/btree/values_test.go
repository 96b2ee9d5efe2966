package btree

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"segdb/internal/store"
)

func newValueTree(t *testing.T, pageSize, poolPages, valSize int) *Tree {
	t.Helper()
	tr, err := New(store.NewPool(store.NewDisk(pageSize), poolPages), valSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestValueRoundTrip(t *testing.T) {
	tr := newValueTree(t, 256, 8, 8)
	if tr.ValueSize() != 8 {
		t.Fatalf("ValueSize = %d", tr.ValueSize())
	}
	val := func(k uint64) []byte {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], k*7+1)
		return b[:]
	}
	for k := uint64(0); k < 500; k++ {
		if err := tr.InsertValue(k, val(k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 500; k++ {
		v, ok, err := tr.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || !bytes.Equal(v, val(k)) {
			t.Fatalf("Get(%d) = %x ok=%v, want %x", k, v, ok, val(k))
		}
	}
	if _, ok, _ := tr.Get(999); ok {
		t.Error("Get of missing key succeeded")
	}
}

func TestValueCapacityShrinks(t *testing.T) {
	bare := newValueTree(t, 1024, 8, 0)
	valued := newValueTree(t, 1024, 8, 8)
	if valued.LeafCapacity() >= bare.LeafCapacity() {
		t.Errorf("valued capacity %d should be below bare %d",
			valued.LeafCapacity(), bare.LeafCapacity())
	}
	// The §6 arithmetic: 16-byte entries -> ~63 per 1 KB page.
	if got := valued.LeafCapacity(); got != (1024-8)/16 {
		t.Errorf("valued capacity = %d", got)
	}
}

func TestInvalidValueSize(t *testing.T) {
	pool := store.NewPool(store.NewDisk(256), 8)
	if _, err := New(pool, -1, 0); err == nil {
		t.Error("negative value size accepted")
	}
	if _, err := New(pool, 200, 0); err == nil {
		t.Error("oversized value accepted")
	}
}

func TestValuePaddingAndTruncation(t *testing.T) {
	tr := newValueTree(t, 256, 8, 4)
	// Short values are zero-padded; long ones truncated.
	tr.InsertValue(1, []byte{0xaa})
	tr.InsertValue(2, []byte{1, 2, 3, 4, 5, 6})
	v1, _, _ := tr.Get(1)
	if !bytes.Equal(v1, []byte{0xaa, 0, 0, 0}) {
		t.Errorf("padded value = %x", v1)
	}
	v2, _, _ := tr.Get(2)
	if !bytes.Equal(v2, []byte{1, 2, 3, 4}) {
		t.Errorf("truncated value = %x", v2)
	}
}

// Values survive arbitrary interleavings of inserts and deletes with the
// rebalancing (borrows and merges) they trigger.
func TestValuesSurviveRebalancing(t *testing.T) {
	tr := newValueTree(t, 128, 8, 8) // tiny pages: constant splits/merges
	rng := rand.New(rand.NewSource(88))
	ref := make(map[uint64][]byte)
	val := func(k uint64, gen int) []byte {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], k<<16|uint64(gen))
		return b[:]
	}
	for step := 0; step < 8000; step++ {
		k := uint64(rng.Intn(700))
		if rng.Intn(2) == 0 {
			if _, exists := ref[k]; !exists {
				v := val(k, step)
				if err := tr.InsertValue(k, v); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				ref[k] = v
			}
		} else if _, exists := ref[k]; exists {
			if err := tr.Delete(k); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			delete(ref, k)
		}
		if step%1000 == 0 {
			if err := tr.Validate(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			for rk, rv := range ref {
				v, ok, err := tr.Get(rk)
				if err != nil {
					t.Fatal(err)
				}
				if !ok || !bytes.Equal(v, rv) {
					t.Fatalf("step %d: key %d value %x, want %x (ok=%v)", step, rk, v, rv, ok)
				}
			}
		}
	}
	// Final sweep via ScanValues.
	got := 0
	tr.ScanValues(0, ^uint64(0), func(k uint64, v []byte) bool {
		if !bytes.Equal(v, ref[k]) {
			t.Fatalf("scan: key %d value %x, want %x", k, v, ref[k])
		}
		got++
		return true
	}, nil)
	if got != len(ref) {
		t.Fatalf("scan saw %d keys, want %d", got, len(ref))
	}
}

func TestScanValuesRange(t *testing.T) {
	tr := newValueTree(t, 256, 8, 2)
	for k := uint64(0); k < 100; k += 10 {
		tr.InsertValue(k, []byte{byte(k), byte(k + 1)})
	}
	var keys []uint64
	tr.ScanValues(15, 55, func(k uint64, v []byte) bool {
		if v[0] != byte(k) || v[1] != byte(k+1) {
			t.Fatalf("value mismatch at %d: %x", k, v)
		}
		keys = append(keys, k)
		return true
	}, nil)
	if len(keys) != 4 || keys[0] != 20 || keys[3] != 50 {
		t.Errorf("keys = %v", keys)
	}
}
