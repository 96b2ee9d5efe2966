package btree

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"segdb/internal/store"
)

func newTestTree(t *testing.T, pageSize, poolPages int) *Tree {
	t.Helper()
	tr, err := New(store.NewPool(store.NewDisk(pageSize), poolPages), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestInsertScanSmall(t *testing.T) {
	tr := newTestTree(t, 256, 8)
	keys := []uint64{5, 3, 9, 1, 7, 2, 8, 4, 6, 0}
	for _, k := range keys {
		if err := tr.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != len(keys) {
		t.Fatalf("Len = %d", tr.Len())
	}
	var got []uint64
	if err := tr.Scan(0, 100, func(k uint64) bool { got = append(got, k); return true }, nil); err != nil {
		t.Fatal(err)
	}
	for i, k := range got {
		if uint64(i) != k {
			t.Fatalf("scan order wrong: %v", got)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateRejected(t *testing.T) {
	tr := newTestTree(t, 256, 8)
	if err := tr.Insert(42); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(42); err != ErrDuplicate {
		t.Fatalf("err = %v, want ErrDuplicate", err)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d after duplicate", tr.Len())
	}
}

func TestContains(t *testing.T) {
	tr := newTestTree(t, 256, 8)
	for k := uint64(0); k < 100; k += 2 {
		tr.Insert(k)
	}
	for k := uint64(0); k < 100; k++ {
		ok, err := tr.Contains(k)
		if err != nil {
			t.Fatal(err)
		}
		if want := k%2 == 0; ok != want {
			t.Errorf("Contains(%d) = %v", k, ok)
		}
	}
}

func TestScanRangeBounds(t *testing.T) {
	tr := newTestTree(t, 256, 8)
	for k := uint64(10); k <= 50; k += 10 {
		tr.Insert(k)
	}
	var got []uint64
	tr.Scan(20, 40, func(k uint64) bool { got = append(got, k); return true }, nil)
	if len(got) != 2 || got[0] != 20 || got[1] != 30 {
		t.Errorf("Scan[20,40) = %v", got)
	}
	// Empty and inverted ranges.
	got = nil
	tr.Scan(41, 41, func(k uint64) bool { got = append(got, k); return true }, nil)
	if len(got) != 0 {
		t.Errorf("empty range returned %v", got)
	}
	// Early stop.
	n := 0
	tr.Scan(0, 100, func(k uint64) bool { n++; return n < 2 }, nil)
	if n != 2 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestGrowsAndShrinksHeight(t *testing.T) {
	tr := newTestTree(t, 256, 8)
	if tr.Height() != 1 {
		t.Fatalf("empty height = %d", tr.Height())
	}
	const n = 5000
	for k := uint64(0); k < n; k++ {
		if err := tr.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Height() < 3 {
		t.Fatalf("height after %d sequential inserts = %d, want >= 3", n, tr.Height())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < n; k++ {
		if err := tr.Delete(k); err != nil {
			t.Fatalf("delete %d: %v", k, err)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after deleting all", tr.Len())
	}
	if tr.Height() != 1 {
		t.Fatalf("height after deleting all = %d", tr.Height())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteNotFound(t *testing.T) {
	tr := newTestTree(t, 256, 8)
	tr.Insert(1)
	if err := tr.Delete(2); err != ErrNotFound {
		t.Fatalf("err = %v", err)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len changed on failed delete")
	}
}

// The central property test: against a reference model (sorted slice),
// random interleaved inserts, deletes and scans agree, and invariants hold
// throughout.
func TestRandomOpsAgainstReference(t *testing.T) {
	for _, cfg := range []struct{ pageSize, poolPages, steps int }{
		{128, 4, 4000},
		{256, 8, 6000},
		{1024, 16, 8000},
	} {
		tr := newTestTree(t, cfg.pageSize, cfg.poolPages)
		rng := rand.New(rand.NewSource(int64(cfg.pageSize)))
		ref := make(map[uint64]bool)

		for step := 0; step < cfg.steps; step++ {
			k := uint64(rng.Intn(2000))
			switch rng.Intn(10) {
			case 0, 1, 2, 3, 4, 5: // insert
				err := tr.Insert(k)
				if ref[k] && err != ErrDuplicate {
					t.Fatalf("cfg %v step %d: expected duplicate for %d, got %v", cfg, step, k, err)
				}
				if !ref[k] {
					if err != nil {
						t.Fatalf("cfg %v step %d: insert %d: %v", cfg, step, k, err)
					}
					ref[k] = true
				}
			case 6, 7, 8: // delete
				err := tr.Delete(k)
				if ref[k] && err != nil {
					t.Fatalf("cfg %v step %d: delete %d: %v", cfg, step, k, err)
				}
				if !ref[k] && err != ErrNotFound {
					t.Fatalf("cfg %v step %d: delete missing %d gave %v", cfg, step, k, err)
				}
				delete(ref, k)
			default: // range scan vs reference
				lo := uint64(rng.Intn(2000))
				hi := lo + uint64(rng.Intn(300))
				var got []uint64
				tr.Scan(lo, hi, func(k uint64) bool { got = append(got, k); return true }, nil)
				var want []uint64
				for rk := range ref {
					if rk >= lo && rk < hi {
						want = append(want, rk)
					}
				}
				sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
				if len(got) != len(want) {
					t.Fatalf("cfg %v step %d: scan[%d,%d) got %d keys, want %d", cfg, step, lo, hi, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("cfg %v step %d: scan mismatch at %d", cfg, step, i)
					}
				}
			}
			if step%500 == 0 {
				if err := tr.Validate(); err != nil {
					t.Fatalf("cfg %v step %d: %v", cfg, step, err)
				}
			}
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("cfg %v final: %v", cfg, err)
		}
		if tr.Len() != len(ref) {
			t.Fatalf("cfg %v: Len = %d, want %d", cfg, tr.Len(), len(ref))
		}
	}
}

func TestLargeKeysNearMax(t *testing.T) {
	tr := newTestTree(t, 256, 8)
	keys := []uint64{math.MaxUint64 - 1, math.MaxUint64 - 2, math.MaxUint64 / 2, 0, 1}
	for _, k := range keys {
		if err := tr.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	var got []uint64
	tr.Scan(0, math.MaxUint64, func(k uint64) bool { got = append(got, k); return true }, nil)
	if len(got) != len(keys) {
		t.Fatalf("got %d keys", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatal("not sorted")
		}
	}
}

func TestDiskPagesFreedOnMerge(t *testing.T) {
	tr := newTestTree(t, 128, 8)
	const n = 2000
	for k := uint64(0); k < n; k++ {
		tr.Insert(k)
	}
	peak := tr.Pool().Disk().PagesInUse()
	for k := uint64(0); k < n; k++ {
		tr.Delete(k)
	}
	if after := tr.Pool().Disk().PagesInUse(); after >= peak/2 {
		t.Errorf("pages in use after mass delete = %d, peak %d; merges should free pages", after, peak)
	}
}

func TestColdScanDiskAccessesScaleWithPages(t *testing.T) {
	tr := newTestTree(t, 1024, 16)
	const n = 20000
	for k := uint64(0); k < n; k++ {
		tr.Insert(k)
	}
	tr.Pool().DropAll()
	before := tr.Pool().Stats()
	count := 0
	tr.Scan(0, math.MaxUint64, func(uint64) bool { count++; return true }, nil)
	reads := tr.Pool().Stats().Sub(before).Reads
	if count != n {
		t.Fatalf("scanned %d", count)
	}
	// A full scan should read roughly keys/leafCap leaves (plus the spine),
	// far fewer than one page per key.
	maxExpected := uint64(n/tr.LeafCapacity()*3 + 10)
	if reads > maxExpected {
		t.Errorf("cold scan reads = %d, want <= %d", reads, maxExpected)
	}
}

func TestSeekLE(t *testing.T) {
	tr := newTestTree(t, 256, 8)
	if _, ok, _ := tr.SeekLE(100, nil); ok {
		t.Error("SeekLE on empty tree should fail")
	}
	for k := uint64(10); k <= 5000; k += 10 {
		tr.Insert(k)
	}
	cases := []struct {
		k    uint64
		want uint64
		ok   bool
	}{
		{5, 0, false},      // below everything
		{10, 10, true},     // exact smallest
		{11, 10, true},     // between
		{4999, 4990, true}, // between near top
		{5000, 5000, true}, // exact largest
		{999999, 5000, true},
	}
	for _, c := range cases {
		got, ok, err := tr.SeekLE(c.k, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("SeekLE(%d) = %d,%v want %d,%v", c.k, got, ok, c.want, c.ok)
		}
	}
}

func TestSeekLEMatchesReference(t *testing.T) {
	tr := newTestTree(t, 128, 8)
	rng := rand.New(rand.NewSource(77))
	ref := make(map[uint64]bool)
	for i := 0; i < 3000; i++ {
		k := uint64(rng.Intn(100000))
		if !ref[k] {
			if err := tr.Insert(k); err != nil {
				t.Fatal(err)
			}
			ref[k] = true
		}
	}
	keys := make([]uint64, 0, len(ref))
	for k := range ref {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for trial := 0; trial < 2000; trial++ {
		k := uint64(rng.Intn(110000))
		i := sort.Search(len(keys), func(i int) bool { return keys[i] > k })
		got, ok, err := tr.SeekLE(k, nil)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if ok {
				t.Fatalf("SeekLE(%d) = %d, want none", k, got)
			}
			continue
		}
		if !ok || got != keys[i-1] {
			t.Fatalf("SeekLE(%d) = %d,%v want %d", k, got, ok, keys[i-1])
		}
	}
}
