package rpage

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"segdb/internal/geom"
	"segdb/internal/kernel"
)

// DecodeSoA must agree with the array-of-entries decode on every page,
// and must carry the SWAR packed lane exactly when all coordinates fit
// the packable domain.
func TestDecodeSoAMatchesRead(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 400; trial++ {
		pageSize := []int{256, 512, 1024, 4096}[rng.Intn(4)]
		n := &Node{Leaf: rng.Intn(2) == 0}
		count := rng.Intn(Capacity(pageSize) + 1)
		for i := 0; i < count; i++ {
			x := int32(rng.Intn(geom.WorldSize - 1000))
			y := int32(rng.Intn(geom.WorldSize - 1000))
			n.Entries = append(n.Entries, Entry{
				Rect: geom.RectOf(x, y, x+int32(rng.Intn(1000)), y+int32(rng.Intn(1000))),
				Ptr:  rng.Uint32(),
			})
		}
		data := make([]byte, pageSize)
		Write(data, n)
		soa, err := DecodeSoA(data)
		if err != nil {
			t.Fatalf("trial %d: DecodeSoA: %v", trial, err)
		}
		if soa.Leaf != n.Leaf || soa.Len() != len(n.Entries) {
			t.Fatalf("trial %d: shape mismatch: leaf=%v len=%d vs %v/%d", trial, soa.Leaf, soa.Len(), n.Leaf, len(n.Entries))
		}
		if soa.Packed == nil {
			t.Fatalf("trial %d: world-grid page decoded without a packed lane", trial)
		}
		for i, e := range n.Entries {
			if soa.Rect(i) != e.Rect || soa.Ptr[i] != e.Ptr {
				t.Fatalf("trial %d entry %d: SoA (%v, %d) != (%v, %d)", trial, i, soa.Rect(i), soa.Ptr[i], e.Rect, e.Ptr)
			}
			if got := kernel.UnpackRect(soa.Packed[i]); got != e.Rect {
				t.Fatalf("trial %d entry %d: packed lane unpacks to %v, want %v", trial, i, got, e.Rect)
			}
		}
	}
}

// A page holding any out-of-domain coordinate (corrupt or foreign image
// whose header still validates) must decode with no packed lane, leaving
// searches on the exact int32-lane fallback.
func TestDecodeSoAOutOfWorldFallsBack(t *testing.T) {
	n := &Node{Leaf: true, Entries: []Entry{
		{Rect: geom.RectOf(10, 10, 20, 20), Ptr: 1},
		{Rect: geom.Rect{Min: geom.Point{X: -5, Y: 0}, Max: geom.Point{X: 9, Y: 9}}, Ptr: 2}, // negative coordinate
	}}
	data := make([]byte, 1024)
	Write(data, n)
	soa, err := DecodeSoA(data)
	if err != nil {
		t.Fatalf("DecodeSoA: %v", err)
	}
	if soa.Packed != nil {
		t.Fatal("out-of-domain page decoded with a packed lane")
	}
	for i, e := range n.Entries {
		if soa.Rect(i) != e.Rect {
			t.Fatalf("entry %d: %v != %v", i, soa.Rect(i), e.Rect)
		}
	}
}

// DecodeSoA applies the same corruption validation as ReadInto.
func TestDecodeSoARejectsCorruptHeaders(t *testing.T) {
	data := make([]byte, 1024)
	Write(data, &Node{Leaf: true})
	data[0] = 7 // invalid node type
	if _, err := DecodeSoA(data); err == nil {
		t.Error("bad node type accepted")
	}
	data[0] = 1
	binary.LittleEndian.PutUint16(data[2:], uint16(Capacity(1024)+1)) // count beyond capacity
	if _, err := DecodeSoA(data); err == nil {
		t.Error("oversized entry count accepted")
	}
}
