package rpage

import (
	"math/rand"
	"testing"
	"testing/quick"

	"segdb/internal/geom"
)

func TestCapacityArithmetic(t *testing.T) {
	// §4 of the paper: 20-byte tuples on 1 KB pages -> ~50 entries.
	if got := Capacity(1024); got != 51 {
		t.Errorf("Capacity(1024) = %d", got)
	}
	if got := Capacity(512); got != 25 {
		t.Errorf("Capacity(512) = %d", got)
	}
	if Capacity(4096) <= 2*Capacity(2048)-2 {
		t.Error("capacity should scale roughly linearly with page size")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		pageSize := []int{256, 512, 1024, 4096}[rng.Intn(4)]
		n := &Node{Leaf: rng.Intn(2) == 0}
		count := rng.Intn(Capacity(pageSize) + 1)
		for i := 0; i < count; i++ {
			x := int32(rng.Intn(geom.WorldSize))
			y := int32(rng.Intn(geom.WorldSize))
			n.Entries = append(n.Entries, Entry{
				Rect: geom.RectOf(x, y,
					x+int32(rng.Intn(1000)), y+int32(rng.Intn(1000))),
				Ptr: rng.Uint32(),
			})
		}
		data := make([]byte, pageSize)
		Write(data, n)
		got := new(Node)
		err := ReadInto(data, got)
		if err != nil {
			t.Fatalf("trial %d: ReadInto: %v", trial, err)
		}
		if got.Leaf != n.Leaf || len(got.Entries) != len(n.Entries) {
			t.Fatalf("trial %d: shape mismatch", trial)
		}
		for i := range n.Entries {
			if got.Entries[i] != n.Entries[i] {
				t.Fatalf("trial %d: entry %d: %+v != %+v", trial, i, got.Entries[i], n.Entries[i])
			}
		}
	}
}

func TestRoundTripQuick(t *testing.T) {
	f := func(leaf bool, xs [8]uint16, ys [8]uint16, ptrs [8]uint32) bool {
		n := &Node{Leaf: leaf}
		for i := 0; i < 8; i++ {
			x, y := int32(xs[i])%geom.WorldSize, int32(ys[i])%geom.WorldSize
			n.Entries = append(n.Entries, Entry{
				Rect: geom.RectOf(x, y, x+1, y+1),
				Ptr:  ptrs[i],
			})
		}
		data := make([]byte, 512)
		Write(data, n)
		got := new(Node)
		err := ReadInto(data, got)
		if err != nil {
			return false
		}
		if got.Leaf != leaf || len(got.Entries) != 8 {
			return false
		}
		for i := range n.Entries {
			if got.Entries[i] != n.Entries[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMBR(t *testing.T) {
	n := &Node{Entries: []Entry{
		{Rect: geom.RectOf(10, 10, 20, 20)},
		{Rect: geom.RectOf(5, 15, 8, 40)},
		{Rect: geom.RectOf(30, 2, 31, 3)},
	}}
	want := geom.RectOf(5, 2, 31, 40)
	if got := n.MBR(); got != want {
		t.Errorf("MBR = %v, want %v", got, want)
	}
}

func TestOverwriteSmallerNode(t *testing.T) {
	// Re-writing a page with fewer entries must not leak old ones.
	data := make([]byte, 256)
	big := &Node{Leaf: true}
	for i := 0; i < 10; i++ {
		big.Entries = append(big.Entries, Entry{Rect: geom.RectOf(1, 1, 2, 2), Ptr: uint32(i)})
	}
	Write(data, big)
	small := &Node{Leaf: false, Entries: []Entry{{Rect: geom.RectOf(3, 3, 4, 4), Ptr: 99}}}
	Write(data, small)
	got := new(Node)
	err := ReadInto(data, got)
	if err != nil {
		t.Fatalf("ReadInto: %v", err)
	}
	if got.Leaf || len(got.Entries) != 1 || got.Entries[0].Ptr != 99 {
		t.Fatalf("stale data after overwrite: %+v", got)
	}
}
