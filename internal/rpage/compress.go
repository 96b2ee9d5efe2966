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
//	byte 1       lane mode: 1 = uint16 offsets (lossless),
//	             2 = uint8 quantized (outward-rounded)
//	bytes 2..3   entry count (uint16)
//	bytes 4..19  node MBR: xmin, ymin, xmax, ymax (int32)
//	entries      mode 1: 4 x uint16 offsets + uint32 ptr (12 bytes)
//	             mode 2: 4 x uint8 buckets + uint32 ptr  (8 bytes)
//
// Mode 1 is exact for any node whose MBR extent fits 16 bits — always
// true for world-bounded data (extent <= 16383) — so decode(encode(n))
// == n and every structural invariant is preserved bit for bit. Mode 2
// quantizes each axis into 255 buckets with outward rounding (floor for
// minima, ceiling for maxima), so a decoded rectangle always contains
// the encoded one and never escapes the node MBR: traversals prune
// conservatively and the exact segment tests at the leaves keep results
// identical. Pages are self-describing — a disk may mix v1 and v3 pages
// and every decoder dispatches on the type byte.
const (
	// CHeaderSize is the v3 header: type, mode, count, and the node MBR.
	CHeaderSize = 20
	// EntrySize16 is the 12-byte footprint of a mode-1 entry.
	EntrySize16 = 12
	// EntrySize8 is the 8-byte footprint of a mode-2 entry.
	EntrySize8 = 8

	typeCompressedInternal = 2
	typeCompressedLeaf     = 3

	mode16 = 1
	mode8  = 2

	// quantBuckets is the number of 8-bit quantization steps per axis.
	quantBuckets = 255
)

// CapacityLevel returns the entry capacity of a page at the given
// compression level: level 0 is the classic 20-byte format, level 1 the
// lossless 16-bit offset format, level 2 the 8-bit quantized format.
func CapacityLevel(pageSize, level int) int {
	switch {
	case level >= 2:
		return (pageSize - CHeaderSize) / EntrySize8
	case level == 1:
		return (pageSize - CHeaderSize) / EntrySize16
	default:
		return Capacity(pageSize)
	}
}

// Lossy reports whether the given compression level rounds coordinates
// (level 2); level 1 round-trips world-bounded rectangles exactly.
func Lossy(level int) bool { return level >= 2 }

// WriteLevel encodes n into the page buffer using the given compression
// level (0 = classic format, identical to Write). It fails only when an
// entry cannot be expressed relative to the node MBR — impossible for
// world-bounded rectangles, so an error indicates corrupted in-memory
// state rather than an operational condition.
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
	mode := byte(mode16)
	if level >= 2 {
		mode = mode8
	}
	data[1] = mode
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
		if mode == mode16 {
			binary.LittleEndian.PutUint16(data[off+0:], uint16(x0))
			binary.LittleEndian.PutUint16(data[off+2:], uint16(y0))
			binary.LittleEndian.PutUint16(data[off+4:], uint16(x1))
			binary.LittleEndian.PutUint16(data[off+6:], uint16(y1))
			binary.LittleEndian.PutUint32(data[off+8:], e.Ptr)
			off += EntrySize16
			continue
		}
		data[off+0] = quantDown(x0, ex)
		data[off+1] = quantDown(y0, ey)
		data[off+2] = quantUp(x1, ex)
		data[off+3] = quantUp(y1, ey)
		binary.LittleEndian.PutUint32(data[off+4:], e.Ptr)
		off += EntrySize8
	}
	return nil
}

// quantDown maps an offset in [0, extent] onto a bucket whose dequantized
// value never exceeds the original (floor at both steps).
func quantDown(v, extent int64) byte {
	if extent == 0 {
		return 0
	}
	return byte(v * quantBuckets / extent)
}

// quantUp maps an offset in [0, extent] onto a bucket whose dequantized
// value (ceiling at both steps) never falls below the original and never
// exceeds the extent.
func quantUp(v, extent int64) byte {
	if extent == 0 {
		return 0
	}
	return byte((v*quantBuckets + extent - 1) / extent)
}

// dequantDown is the decode half of quantDown.
func dequantDown(q byte, extent int64) int64 {
	return int64(q) * extent / quantBuckets
}

// dequantUp is the decode half of quantUp.
func dequantUp(q byte, extent int64) int64 {
	return (int64(q)*extent + quantBuckets - 1) / quantBuckets
}

// compressedHeader validates a v3 page header and returns its shape.
func compressedHeader(data []byte) (leaf bool, mode byte, count int, mbr geom.Rect, err error) {
	leaf = data[0] == typeCompressedLeaf
	mode = data[1]
	var level int
	switch mode {
	case mode16:
		level = 1
	case mode8:
		level = 2
	default:
		return false, 0, 0, geom.Rect{}, fmt.Errorf("rpage: corrupt page: lane mode %d: %w", mode, store.ErrBadPage)
	}
	count = int(binary.LittleEndian.Uint16(data[2:]))
	if max := CapacityLevel(len(data), level); count > max {
		return false, 0, 0, geom.Rect{}, fmt.Errorf("rpage: corrupt page: %d entries exceed page capacity %d: %w", count, max, store.ErrBadPage)
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
			return false, 0, 0, geom.Rect{}, fmt.Errorf("rpage: corrupt page: inverted node MBR %v: %w", mbr, store.ErrBadPage)
		}
		ex := int64(mbr.Max.X) - int64(mbr.Min.X)
		ey := int64(mbr.Max.Y) - int64(mbr.Min.Y)
		if ex > 0xFFFF || ey > 0xFFFF {
			return false, 0, 0, geom.Rect{}, fmt.Errorf("rpage: corrupt page: node MBR extent %dx%d exceeds the offset domain: %w", ex, ey, store.ErrBadPage)
		}
	}
	return leaf, mode, count, mbr, nil
}

// decompressEntry decodes entry i of a v3 page into an exact or
// conservatively rounded rectangle. The header has already bounded the
// MBR extent, so the arithmetic cannot overflow int32.
func decompressEntry(data []byte, mode byte, mbr geom.Rect, i int) (geom.Rect, uint32, error) {
	ex := int64(mbr.Max.X) - int64(mbr.Min.X)
	ey := int64(mbr.Max.Y) - int64(mbr.Min.Y)
	var x0, y0, x1, y1 int64
	var ptr uint32
	if mode == mode16 {
		off := CHeaderSize + i*EntrySize16
		x0 = int64(binary.LittleEndian.Uint16(data[off+0:]))
		y0 = int64(binary.LittleEndian.Uint16(data[off+2:]))
		x1 = int64(binary.LittleEndian.Uint16(data[off+4:]))
		y1 = int64(binary.LittleEndian.Uint16(data[off+6:]))
		ptr = binary.LittleEndian.Uint32(data[off+8:])
	} else {
		off := CHeaderSize + i*EntrySize8
		x0 = dequantDown(data[off+0], ex)
		y0 = dequantDown(data[off+1], ey)
		x1 = dequantUp(data[off+2], ex)
		y1 = dequantUp(data[off+3], ey)
		ptr = binary.LittleEndian.Uint32(data[off+4:])
	}
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
	leaf, mode, count, mbr, err := compressedHeader(data)
	if err != nil {
		return err
	}
	level := 1
	if mode == mode8 {
		level = 2
	}
	n.Leaf = leaf
	n.pageCap = CapacityLevel(len(data), level)
	if cap(n.Entries) < count {
		n.Entries = make([]Entry, count)
	} else {
		n.Entries = n.Entries[:count]
	}
	for i := range n.Entries {
		r, ptr, err := decompressEntry(data, mode, mbr, i)
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
// dispatch target of DecodeSoA for type bytes 2 and 3). The dequantized
// coordinates land directly in the int32 lanes and the SWAR pack, so the
// kernel path runs on quantized pages with no further widening pass —
// dequantized rectangles of world-bounded data always sit inside the
// node MBR and therefore inside the packable 14-bit domain.
func decodeCompressedSoA(data []byte) (*SoA, error) {
	leaf, mode, count, mbr, err := compressedHeader(data)
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
		r, ptr, err := decompressEntry(data, mode, mbr, i)
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
	// 16-bit offset lanes, "v3-8" for 8-bit quantized lanes.
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
		leaf, mode, count, _, err := compressedHeader(data)
		if err != nil {
			return PageInfo{}, false
		}
		info := PageInfo{Leaf: leaf, Entries: count}
		if mode == mode16 {
			info.Format = "v3-16"
			info.BytesUsed = CHeaderSize + count*EntrySize16
		} else {
			info.Format = "v3-8"
			info.BytesUsed = CHeaderSize + count*EntrySize8
		}
		return info, true
	}
	return PageInfo{}, false
}
