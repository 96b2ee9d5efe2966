package seg

import (
	"math/rand"
	"testing"
	"testing/quick"

	"segdb/internal/geom"
	"segdb/internal/obs"
)

func TestAppendGetRoundTrip(t *testing.T) {
	tab := NewTable(1024, 16)
	segs := []geom.Segment{
		geom.Seg(0, 0, 100, 200),
		geom.Seg(16383, 16383, 1, 2),
		geom.Seg(5, 5, 5, 5),
	}
	var ids []ID
	for _, s := range segs {
		id, err := tab.Append(s)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if tab.Len() != len(segs) {
		t.Fatalf("Len = %d", tab.Len())
	}
	for i, id := range ids {
		got, err := tab.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if got != segs[i] {
			t.Errorf("Get(%d) = %v, want %v", id, got, segs[i])
		}
	}
}

func TestGetOutOfRange(t *testing.T) {
	tab := NewTable(1024, 4)
	if _, err := tab.Get(0); err == nil {
		t.Error("expected error for empty table")
	}
	tab.Append(geom.Segment{})
	if _, err := tab.Get(1); err == nil {
		t.Error("expected error past end")
	}
	if _, err := tab.Get(NilID); err == nil {
		t.Error("expected error for NilID")
	}
}

func TestComparisonCounting(t *testing.T) {
	tab := NewTable(1024, 4)
	var o obs.Op
	id, _ := tab.Append(geom.Seg(1, 2, 3, 4))
	tab.GetObs(id, &o)
	tab.GetObs(id, &o)
	tab.Get(id) // charges no op
	if got := o.Stats().SegComps; got != 2 {
		t.Errorf("SegComps = %d, want 2 (an append is no comparison)", got)
	}
}

func TestPackingDensityAndLocality(t *testing.T) {
	// 1 KB pages hold 64 records; 640 segments should occupy 10 pages.
	tab := NewTable(1024, 16)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 640; i++ {
		s := geom.Seg(int32(rng.Intn(16384)), int32(rng.Intn(16384)),
			int32(rng.Intn(16384)), int32(rng.Intn(16384)))
		if _, err := tab.Append(s); err != nil {
			t.Fatal(err)
		}
	}
	if got := tab.SizeBytes(); got != 10*1024 {
		t.Errorf("SizeBytes = %d, want %d", got, 10*1024)
	}
	// Sequential access after a cold start: 640 gets touch only 10 pages.
	tab.DropCache()
	before := tab.DiskStats()
	for i := 0; i < 640; i++ {
		tab.Get(ID(i))
	}
	if reads := tab.DiskStats().Sub(before).Reads; reads != 10 {
		t.Errorf("sequential scan reads = %d, want 10", reads)
	}
}

func TestManySegmentsRoundTripAcrossPages(t *testing.T) {
	tab := NewTable(256, 2) // tiny pages + pool to force eviction traffic
	rng := rand.New(rand.NewSource(4))
	var want []geom.Segment
	for i := 0; i < 1000; i++ {
		s := geom.Seg(int32(rng.Intn(16384)), int32(rng.Intn(16384)),
			int32(rng.Intn(16384)), int32(rng.Intn(16384)))
		want = append(want, s)
		if _, err := tab.Append(s); err != nil {
			t.Fatal(err)
		}
	}
	// Random access pattern.
	for i := 0; i < 5000; i++ {
		j := rng.Intn(len(want))
		got, err := tab.Get(ID(j))
		if err != nil {
			t.Fatal(err)
		}
		if got != want[j] {
			t.Fatalf("Get(%d) = %v, want %v", j, got, want[j])
		}
	}
}

func TestGetRejectsBadID(t *testing.T) {
	tab := NewTable(1024, 4)
	if _, err := tab.Get(7); err == nil {
		t.Error("expected error for out-of-range id")
	}
}

// Property: any in-world segment round-trips through the on-page record
// encoding exactly.
func TestEncodeDecodeQuick(t *testing.T) {
	f := func(x1, y1, x2, y2 uint16) bool {
		s := geom.Seg(
			int32(x1)%geom.WorldSize, int32(y1)%geom.WorldSize,
			int32(x2)%geom.WorldSize, int32(y2)%geom.WorldSize)
		var buf [recordSize]byte
		encode(buf[:], s)
		return decode(buf[:]) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
