package rpage

import (
	"encoding/binary"
	"fmt"

	"segdb/internal/geom"
	"segdb/internal/kernel"
	"segdb/internal/store"
)

// Compressed page format (v3). The classic format stores each entry as
// four absolute int32 coordinates plus a pointer (20 bytes); on a 16K x
// 16K world that wastes 18 of every 32 coordinate bits. The v3 format
// stores the node's MBR once in the header and every entry rectangle as
// offsets relative to the MBR minimum:
//
//	byte 0       node type: 2 = compressed internal, 3 = compressed leaf
//	byte 1       lane mode: 1 = uint16 offsets
//	bytes 2..3   entry count (uint16)
//	bytes 4..19  node MBR: xmin, ymin, xmax, ymax (int32)
//	entries      4 x uint16 offsets + uint32 ptr (12 bytes)
//
// The format is exact for any node whose MBR extent fits 16 bits —
// always true for world-bounded data (extent <= 16383) — so
// decode(encode(n)) == n and every structural invariant is preserved bit
// for bit. Pages are self-describing — a disk may mix v1 and v3 pages
// and every decoder dispatches on the type byte. Any other lane mode —
// including 2, the removed 8-bit format (DESIGN.md, "Compressed pages")
// — decodes to ErrBadPage.
const (
	// CHeaderSize is the v3 header: type, mode, count, and the node MBR.
	CHeaderSize = 20
	// EntrySize16 is the 12-byte footprint of a v3 entry.
	EntrySize16 = 12

	typeCompressedInternal = 2
	typeCompressedLeaf     = 3

	mode16 = 1
)

// CapacityLevel returns the entry capacity of a page at the given
// compression level: level 0 is the classic 20-byte format, every level
// >= 1 the lossless 16-bit offset format.
func CapacityLevel(pageSize, level int) int {
	if level >= 1 {
		return (pageSize - CHeaderSize) / EntrySize16
	}
	return Capacity(pageSize)
}

// WriteLevel encodes n into the page buffer using the given compression
// level (0 = classic format, identical to Write; >= 1 = v3). It fails
// only when an entry cannot be expressed relative to the node MBR —
// impossible for world-bounded rectangles, so an error indicates
// corrupted in-memory state rather than an operational condition.
func WriteLevel(data []byte, n *Node, level int) error {
	if level <= 0 {
		Write(data, n)
		return nil
	}
	if len(n.Entries) > CapacityLevel(len(data), level) {
		return fmt.Errorf("rpage: %d entries exceed level-%d page capacity %d",
			len(n.Entries), level, CapacityLevel(len(data), level))
	}
	if n.Leaf {
		data[0] = typeCompressedLeaf
	} else {
		data[0] = typeCompressedInternal
	}
	data[1] = mode16
	binary.LittleEndian.PutUint16(data[2:], uint16(len(n.Entries)))
	var mbr geom.Rect
	if len(n.Entries) > 0 {
		mbr = n.MBR()
	}
	binary.LittleEndian.PutUint32(data[4:], uint32(mbr.Min.X))
	binary.LittleEndian.PutUint32(data[8:], uint32(mbr.Min.Y))
	binary.LittleEndian.PutUint32(data[12:], uint32(mbr.Max.X))
	binary.LittleEndian.PutUint32(data[16:], uint32(mbr.Max.Y))
	ex := int64(mbr.Max.X) - int64(mbr.Min.X)
	ey := int64(mbr.Max.Y) - int64(mbr.Min.Y)
	if ex > 0xFFFF || ey > 0xFFFF {
		return fmt.Errorf("rpage: node MBR extent %dx%d exceeds the offset domain", ex, ey)
	}
	off := CHeaderSize
	for _, e := range n.Entries {
		x0 := int64(e.Rect.Min.X) - int64(mbr.Min.X)
		y0 := int64(e.Rect.Min.Y) - int64(mbr.Min.Y)
		x1 := int64(e.Rect.Max.X) - int64(mbr.Min.X)
		y1 := int64(e.Rect.Max.Y) - int64(mbr.Min.Y)
		if x0 < 0 || y0 < 0 || x1 > ex || y1 > ey || x0 > x1 || y0 > y1 {
			return fmt.Errorf("rpage: entry rect %v escapes node MBR %v", e.Rect, mbr)
		}
		binary.LittleEndian.PutUint16(data[off+0:], uint16(x0))
		binary.LittleEndian.PutUint16(data[off+2:], uint16(y0))
		binary.LittleEndian.PutUint16(data[off+4:], uint16(x1))
		binary.LittleEndian.PutUint16(data[off+6:], uint16(y1))
		binary.LittleEndian.PutUint32(data[off+8:], e.Ptr)
		off += EntrySize16
	}
	return nil
}

// compressedHeader validates a v3 page header and returns its shape.
func compressedHeader(data []byte) (leaf bool, count int, mbr geom.Rect, err error) {
	leaf = data[0] == typeCompressedLeaf
	if mode := data[1]; mode != mode16 {
		return false, 0, geom.Rect{}, fmt.Errorf("rpage: corrupt page: lane mode %d: %w", mode, store.ErrBadPage)
	}
	count = int(binary.LittleEndian.Uint16(data[2:]))
	if max := CapacityLevel(len(data), 1); count > max {
		return false, 0, geom.Rect{}, fmt.Errorf("rpage: corrupt page: %d entries exceed page capacity %d: %w", count, max, store.ErrBadPage)
	}
	mbr = geom.Rect{
		Min: geom.Point{
			X: int32(binary.LittleEndian.Uint32(data[4:])),
			Y: int32(binary.LittleEndian.Uint32(data[8:])),
		},
		Max: geom.Point{
			X: int32(binary.LittleEndian.Uint32(data[12:])),
			Y: int32(binary.LittleEndian.Uint32(data[16:])),
		},
	}
	if count > 0 {
		if mbr.Min.X > mbr.Max.X || mbr.Min.Y > mbr.Max.Y {
			return false, 0, geom.Rect{}, fmt.Errorf("rpage: corrupt page: inverted node MBR %v: %w", mbr, store.ErrBadPage)
		}
		ex := int64(mbr.Max.X) - int64(mbr.Min.X)
		ey := int64(mbr.Max.Y) - int64(mbr.Min.Y)
		if ex > 0xFFFF || ey > 0xFFFF {
			return false, 0, geom.Rect{}, fmt.Errorf("rpage: corrupt page: node MBR extent %dx%d exceeds the offset domain: %w", ex, ey, store.ErrBadPage)
		}
	}
	return leaf, count, mbr, nil
}

// decompressEntry decodes entry i of a v3 page. The header has already
// bounded the MBR extent, so the arithmetic cannot overflow int32.
func decompressEntry(data []byte, mbr geom.Rect, i int) (geom.Rect, uint32, error) {
	ex := int64(mbr.Max.X) - int64(mbr.Min.X)
	ey := int64(mbr.Max.Y) - int64(mbr.Min.Y)
	off := CHeaderSize + i*EntrySize16
	x0 := int64(binary.LittleEndian.Uint16(data[off+0:]))
	y0 := int64(binary.LittleEndian.Uint16(data[off+2:]))
	x1 := int64(binary.LittleEndian.Uint16(data[off+4:]))
	y1 := int64(binary.LittleEndian.Uint16(data[off+6:]))
	ptr := binary.LittleEndian.Uint32(data[off+8:])
	if x0 > x1 || y0 > y1 || x1 > ex || y1 > ey {
		return geom.Rect{}, 0, fmt.Errorf("rpage: corrupt page: entry %d offsets escape node MBR: %w", i, store.ErrBadPage)
	}
	return geom.Rect{
		Min: geom.Point{X: mbr.Min.X + int32(x0), Y: mbr.Min.Y + int32(y0)},
		Max: geom.Point{X: mbr.Min.X + int32(x1), Y: mbr.Min.Y + int32(y1)},
	}, ptr, nil
}

// readCompressedInto decodes a v3 page into n (the dispatch target of
// ReadInto for type bytes 2 and 3).
func readCompressedInto(data []byte, n *Node) error {
	leaf, count, mbr, err := compressedHeader(data)
	if err != nil {
		return err
	}
	n.Leaf = leaf
	if cap(n.Entries) < count {
		n.Entries = make([]Entry, count)
	} else {
		n.Entries = n.Entries[:count]
	}
	for i := range n.Entries {
		r, ptr, err := decompressEntry(data, mbr, i)
		if err != nil {
			n.Leaf = false
			n.Entries = n.Entries[:0]
			return err
		}
		n.Entries[i] = Entry{Rect: r, Ptr: ptr}
	}
	return nil
}

// decodeCompressedSoA decodes a v3 page into struct-of-arrays lanes (the
// dispatch target of DecodeSoA for type bytes 2 and 3). The widened
// coordinates land directly in the int32 lanes and the SWAR pack, so the
// kernel path runs on compressed pages with no further pass.
func decodeCompressedSoA(data []byte) (*SoA, error) {
	leaf, count, mbr, err := compressedHeader(data)
	if err != nil {
		return nil, err
	}
	lanes := make([]int32, 4*count)
	n := &SoA{
		Leaf: leaf,
		Xmin: lanes[0*count : 1*count : 1*count],
		Ymin: lanes[1*count : 2*count : 2*count],
		Xmax: lanes[2*count : 3*count : 3*count],
		Ymax: lanes[3*count : 4*count : 4*count],
		Ptr:  make([]uint32, count),
	}
	packed := make([]uint64, count)
	packable := true
	for i := 0; i < count; i++ {
		r, ptr, err := decompressEntry(data, mbr, i)
		if err != nil {
			return nil, err
		}
		n.Xmin[i] = r.Min.X
		n.Ymin[i] = r.Min.Y
		n.Xmax[i] = r.Max.X
		n.Ymax[i] = r.Max.Y
		n.Ptr[i] = ptr
		if packable {
			var ok bool
			packed[i], ok = kernel.PackRect(r.Min.X, r.Min.Y, r.Max.X, r.Max.Y)
			packable = ok
		}
	}
	if packable {
		n.Packed = packed
	}
	return n, nil
}

// PageInfo describes the physical format of one encoded page, for
// operator tooling and the repo benchmark's rpage.* metrics.
type PageInfo struct {
	// Format is "v1" for the classic 20-byte-entry layout, "v3-16" for
	// 16-bit offset lanes.
	Format string
	// Leaf reports the node type.
	Leaf bool
	// Entries is the entry count.
	Entries int
	// BytesUsed is the header plus encoded entries, the page's live
	// bytes (the rest of the page is slack).
	BytesUsed int
}

// Inspect classifies an encoded page without fully decoding it. ok is
// false when the bytes do not parse as any rpage format.
func Inspect(data []byte) (PageInfo, bool) {
	if len(data) < HeaderSize {
		return PageInfo{}, false
	}
	switch data[0] {
	case 0, 1:
		count := int(binary.LittleEndian.Uint16(data[2:]))
		if count > Capacity(len(data)) {
			return PageInfo{}, false
		}
		return PageInfo{
			Format:    "v1",
			Leaf:      data[0] == 1,
			Entries:   count,
			BytesUsed: HeaderSize + count*EntrySize,
		}, true
	case typeCompressedInternal, typeCompressedLeaf:
		if len(data) < CHeaderSize {
			return PageInfo{}, false
		}
		leaf, count, _, err := compressedHeader(data)
		if err != nil {
			return PageInfo{}, false
		}
		return PageInfo{
			Format:    "v3-16",
			Leaf:      leaf,
			Entries:   count,
			BytesUsed: CHeaderSize + count*EntrySize16,
		}, true
	}
	return PageInfo{}, false
}
