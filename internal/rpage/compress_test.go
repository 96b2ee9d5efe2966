package rpage

import (
	"encoding/hex"
	"errors"
	"math/rand"
	"testing"

	"segdb/internal/geom"
	"segdb/internal/store"
)

func randWorldRect(rng *rand.Rand) geom.Rect {
	x0 := rng.Int31n(geom.WorldSize)
	y0 := rng.Int31n(geom.WorldSize)
	x1 := x0 + rng.Int31n(geom.WorldSize-x0)
	y1 := y0 + rng.Int31n(geom.WorldSize-y0)
	return geom.Rect{Min: geom.Point{X: x0, Y: y0}, Max: geom.Point{X: x1, Y: y1}}
}

func randNode(rng *rand.Rand, count int, leaf bool) *Node {
	n := &Node{Leaf: leaf}
	for i := 0; i < count; i++ {
		n.Entries = append(n.Entries, Entry{Rect: randWorldRect(rng), Ptr: rng.Uint32()})
	}
	return n
}

func TestCapacityLevel(t *testing.T) {
	if got := CapacityLevel(1024, 0); got != Capacity(1024) {
		t.Errorf("level 0 capacity = %d, want %d", got, Capacity(1024))
	}
	if got := CapacityLevel(1024, 1); got != 83 {
		t.Errorf("level 1 capacity = %d, want 83", got)
	}
	// Every level >= 1 is the 16-bit format (benchmark/micro.go sizes a
	// buffer with level 2).
	if got := CapacityLevel(1024, 2); got != 83 {
		t.Errorf("level 2 capacity = %d, want 83", got)
	}
}

func TestWriteLevelZeroByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := randNode(rng, 50, true)
	a := make([]byte, 1024)
	b := make([]byte, 1024)
	Write(a, n)
	if err := WriteLevel(b, n, 0); err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("level-0 page differs from classic encoding at byte %d", i)
		}
	}
}

func TestCompressedRoundTripLossless(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		count := rng.Intn(CapacityLevel(1024, 1) + 1)
		n := randNode(rng, count, trial%2 == 0)
		data := make([]byte, 1024)
		if err := WriteLevel(data, n, 1); err != nil {
			t.Fatal(err)
		}
		got := new(Node)
		err := ReadInto(data, got)
		if err != nil {
			t.Fatal(err)
		}
		if got.Leaf != n.Leaf || len(got.Entries) != len(n.Entries) {
			t.Fatalf("shape mismatch: leaf %v/%v entries %d/%d", got.Leaf, n.Leaf, len(got.Entries), len(n.Entries))
		}
		for i := range n.Entries {
			if got.Entries[i] != n.Entries[i] {
				t.Fatalf("entry %d = %+v, want %+v (level 1 must be lossless)", i, got.Entries[i], n.Entries[i])
			}
		}
	}
}

func TestCompressedSoAMatchesNode(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		count := 1 + rng.Intn(CapacityLevel(1024, 1))
		n := randNode(rng, count, trial%2 == 0)
		data := make([]byte, 1024)
		if err := WriteLevel(data, n, 1); err != nil {
			t.Fatal(err)
		}
		dec := new(Node)
		err := ReadInto(data, dec)
		if err != nil {
			t.Fatal(err)
		}
		soa, err := DecodeSoA(data)
		if err != nil {
			t.Fatal(err)
		}
		if soa.Len() != len(dec.Entries) || soa.Leaf != dec.Leaf {
			t.Fatalf("SoA shape mismatch")
		}
		if soa.Packed == nil {
			t.Fatalf("world-bounded page not packable")
		}
		for i, e := range dec.Entries {
			if soa.Rect(i) != e.Rect || soa.Ptr[i] != e.Ptr {
				t.Fatalf("entry %d: SoA %v/%d, Node %v/%d",
					i, soa.Rect(i), soa.Ptr[i], e.Rect, e.Ptr)
			}
		}
	}
}

// mode2Page and mode2Small are pages in the removed 8-bit format (lane
// mode 2), byte for byte what WriteLevel(page, n, 2) wrote at the last
// commit that had it: 30 leaf entries on a 1 KB page and 2 internal
// entries on a 64-byte page, zero-padded to the page size. Every decoder
// must refuse them with ErrBadPage.
var (
	mode2Page = zeroPadded(1024, ""+
		"03021e002601000052000000fd3e0000c93f0000c465f3b141f6d08f9a2dc3a1"+
		"fc2e3c81f4b8ffc887d45d638c68e375ada81e54eb9bedb2d9f6ada15f46ff5a"+
		"1aa13acfa9a4f9e1800250d3c918ec7b2ef8d843e78eff919c1509f9be72f381"+
		"b0ec4d39222385ea5dfd1638e620f280e96a171de307f5c55ec3b1d90083c5cb"+
		"d664896061a7c7d5c82b29cfd746f6e61941e38d162b8c2c559c40642c9c78a3"+
		"91f523edcb44f37af7cc8c3c0d731cffc7b82ddc2b00d0af9aedd8e28890b5b5"+
		"26e1b271752bffc0361dfecf5c126dbd22f927d1aeecfefa8263aaf9df34fb4a"+
		"0e5615cc7317e87e766ad575d2c5f8cdf267ba4fc326d18722910bb33437fc57"+
		"df733f34")
	mode2Small = zeroPadded(64, ""+
		"0202020090090000c5080000702b00006435000043b0ffff4ce64ecb0000db2c"+
		"b00244e2")
)

func zeroPadded(size int, live string) []byte {
	page := make([]byte, size)
	if _, err := hex.Decode(page, []byte(live)); err != nil {
		panic(err)
	}
	return page
}

func TestCompressedCorruptTypedErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := randNode(rng, 20, true)
	good := make([]byte, 1024)
	if err := WriteLevel(good, n, 1); err != nil {
		t.Fatal(err)
	}
	corrupt := func(mut func(p []byte)) []byte {
		p := append([]byte(nil), good...)
		mut(p)
		return p
	}
	cases := map[string][]byte{
		"bad mode":       corrupt(func(p []byte) { p[1] = 9 }),
		"removed mode 2": corrupt(func(p []byte) { p[1] = 2 }),
		"mode-2 page":    mode2Page,
		"mode-2 small":   mode2Small,
		"overflow count": corrupt(func(p []byte) { p[2], p[3] = 0xFF, 0xFF }),
		"inverted MBR":   corrupt(func(p []byte) { copy(p[4:8], []byte{0xFF, 0xFF, 0xFF, 0x7F}) }),
		"bad type":       corrupt(func(p []byte) { p[0] = 7 }),
	}
	for name, page := range cases {
		if err := ReadInto(page, new(Node)); !errors.Is(err, store.ErrBadPage) {
			t.Errorf("%s: ReadInto err = %v, want ErrBadPage", name, err)
		}
		if _, err := DecodeSoA(page); !errors.Is(err, store.ErrBadPage) {
			t.Errorf("%s: DecodeSoA err = %v, want ErrBadPage", name, err)
		}
	}
	// Offsets escaping the declared MBR must be rejected, not silently
	// widened.
	esc := corrupt(func(p []byte) {
		p[CHeaderSize+4] = 0xFF
		p[CHeaderSize+5] = 0xFF
	})
	if err := ReadInto(esc, new(Node)); !errors.Is(err, store.ErrBadPage) {
		t.Errorf("escaping offsets: ReadInto err = %v, want ErrBadPage", err)
	}
}

func TestWriteLevelRejectsOutOfDomain(t *testing.T) {
	n := &Node{Entries: []Entry{
		{Rect: geom.Rect{Min: geom.Point{X: 0, Y: 0}, Max: geom.Point{X: 1 << 20, Y: 1}}},
	}}
	data := make([]byte, 1024)
	if err := WriteLevel(data, n, 1); err == nil {
		t.Fatal("WriteLevel accepted an MBR extent beyond the 16-bit offset domain")
	}
}

func FuzzDecodeCompressed(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	page := make([]byte, 1024)
	if err := WriteLevel(page, randNode(rng, 30, true), 1); err != nil {
		f.Fatal(err)
	}
	f.Add(page)
	small := make([]byte, 64)
	if err := WriteLevel(small, randNode(rng, 2, false), 1); err != nil {
		f.Fatal(err)
	}
	f.Add(small)
	f.Add(mode2Page)
	f.Add(mode2Small)
	f.Add([]byte{2, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < CHeaderSize {
			return
		}
		// Neither decoder may panic or over-read; a failure must be a
		// typed corrupt-page error.
		n := new(Node)
		err := ReadInto(data, n)
		if err != nil && !errors.Is(err, store.ErrBadPage) && data[0] > 1 {
			t.Fatalf("ReadInto: non-typed error %v for node type %d", err, data[0])
		}
		soa, serr := DecodeSoA(data)
		if (err == nil) != (serr == nil) {
			t.Fatalf("ReadInto err=%v but DecodeSoA err=%v", err, serr)
		}
		if err == nil && soa != nil {
			if len(n.Entries) != soa.Len() {
				t.Fatalf("ReadInto %d entries, DecodeSoA %d", len(n.Entries), soa.Len())
			}
			for i := range n.Entries {
				if soa.Rect(i) != n.Entries[i].Rect || soa.Ptr[i] != n.Entries[i].Ptr {
					t.Fatalf("entry %d decodes differently across paths", i)
				}
			}
		}
	})
}
