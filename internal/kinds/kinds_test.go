package kinds

import (
	"strings"
	"testing"

	"segdb/internal/seg"
	"segdb/internal/store"
)

func TestNames(t *testing.T) {
	want := map[Kind][2]string{
		RStar:       {"R*-tree", "R*"},
		RPlus:       {"R+-tree", "R+"},
		PMR:         {"PMR quadtree", "PMR"},
		KDB:         {"k-d-B-tree", "k-d-B"},
		UniformGrid: {"uniform grid", "grid"},
		RTree:       {"R-tree", "R"},
		Kind(-1):    {"Kind(-1)", "Kind(-1)"},
		Kind(6):     {"Kind(6)", "Kind(6)"},
	}
	for k, w := range want {
		if k.String() != w[0] || k.Label() != w[1] {
			t.Errorf("kind %d: String %q Label %q, want %q %q", int(k), k.String(), k.Label(), w[0], w[1])
		}
	}
}

func TestFlags(t *testing.T) {
	for _, k := range []Kind{RStar, RPlus, PMR, KDB, UniformGrid, RTree} {
		flag := names[k][2]
		if got, ok := ByFlag(flag); !ok || got != k {
			t.Errorf("ByFlag(%q) = %v, %v; want %v", flag, got, ok, k)
		}
	}
	if _, ok := ByFlag("quadtree"); ok {
		t.Error("ByFlag accepted an unknown name")
	}
	if got, want := Flags(), "rstar|rplus|pmr|kdb|grid|rtree"; got != want {
		t.Errorf("Flags() = %q, want %q", got, want)
	}
}

func TestUnknownKindAndMetadataLength(t *testing.T) {
	c := DefaultConfig()
	pool := store.NewPool(store.NewDisk(c.PageSize), c.PoolPages)
	table := seg.NewTable(c.PageSize, c.PoolPages)
	if err := Check(Kind(6)); err == nil || !strings.Contains(err.Error(), "unknown index kind 6") {
		t.Errorf("Check(6) = %v", err)
	}
	if _, err := New(Kind(-1), c, pool, table); err == nil {
		t.Error("New accepted kind -1")
	}
	if _, err := Bulk(Kind(6), c, pool, table, nil, nil); err == nil {
		t.Error("Bulk accepted kind 6")
	}
	for k := RStar; k <= RTree; k++ {
		if err := Check(k); err != nil {
			t.Errorf("Check(%v) = %v", k, err)
		}
		if _, err := Restore(k, c, pool, table, make([]uint64, 5)); err == nil || !strings.Contains(err.Error(), "has 5 words") {
			t.Errorf("Restore(%v) with 5 metadata words = %v", k, err)
		}
	}
}
