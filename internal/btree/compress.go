package btree

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"segdb/internal/store"
)

// Compressed leaf format (v3, node type byte 2). The classic leaf spends
// 8 bytes per key, but the tree's keys — PMR locational codes and grid
// cell keys — are stored sorted, so consecutive keys are numerically
// close and their differences varint-encode in a byte or two:
//
//	byte 0      node type: 2 = compressed leaf
//	byte 1      flags: bit 0 set when the 8-byte values are bit-packed
//	            as 4 x 14-bit words (7 bytes each)
//	bytes 2..3  key count (uint16)
//	bytes 4..7  right-sibling page id
//	bytes 8..   uvarint(keys[0]), then uvarint(keys[i]-keys[i-1]);
//	            then count fixed-size value records
//
// Internal nodes keep the classic format — they are a small minority of
// pages and their separator keys span the whole key space, where deltas
// buy little. Pages are self-describing, so one tree may mix classic and
// compressed leaves. A compressed leaf has no random access, so nothing
// works on its bytes: expandLeaf decodes it into a v1 image (the classic
// leaf layout, in a buffer), the page view reads and edits the image like
// any v1 page, and writeCompressedLeaf encodes it back.
const (
	typeCompressedLeaf = 2
	flagPackedValues   = 1

	// packedValueSize is the footprint of an 8-byte value whose four
	// uint16 words all fit the 14-bit world domain (block-relative PMR
	// q-edge rectangles always do).
	packedValueSize = 7
)

// uvarintLen returns the encoded size of v in bytes.
func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// packable reports whether every value of leaf p is 8 bytes of four
// uint16 words below 1<<14, the precondition for 14-bit packing.
func (p page) packable() bool {
	if p.stride != 16 {
		return false
	}
	for i := 0; i < p.count(); i++ {
		v := p.val(i)
		for j := 0; j < 8; j += 2 {
			if binary.LittleEndian.Uint16(v[j:]) >= 1<<14 {
				return false
			}
		}
	}
	return true
}

// encodedSize returns the byte footprint of leaf p as a compressed leaf.
func encodedSize(p page) int {
	vsize := p.stride - 8
	if p.packable() {
		vsize = packedValueSize
	}
	size, prev := headerSize+p.count()*vsize, uint64(0)
	for off := headerSize; off < p.off(p.count()); off += p.stride {
		k := binary.LittleEndian.Uint64(p.data[off : off+8])
		size += uvarintLen(k - prev) // the first key in full
		prev = k
	}
	return size
}

// mergedSize returns the encoded footprint of a's entries followed by
// b's in one compressed leaf, without building it. Packing is a
// whole-leaf property: two packable leaves stay packable, but a packable
// leaf absorbing unpackable values does not.
func mergedSize(a, b page) int {
	size := encodedSize(a) + encodedSize(b) - headerSize
	if a.count() > 0 && b.count() > 0 {
		// b's first key becomes a delta from a's last.
		size += uvarintLen(b.key(0)-a.key(a.count()-1)) - uvarintLen(b.key(0))
	}
	if ap, bp := a.packable(), b.packable(); ap && !bp {
		size += a.count() // 8 verbatim bytes a value instead of 7
	} else if bp && !ap {
		size += b.count()
	}
	return size
}

// writeCompressedLeaf encodes leaf p in the v3 format. The caller is
// responsible for ensuring it fits (encodedSize(p) <= len(data)); the
// tree's insert and rebalance paths maintain that as their occupancy
// invariant.
func writeCompressedLeaf(data []byte, p page) {
	count, next, packed, vsize := p.count(), p.next(), p.packable(), p.stride-8
	data[0], data[1] = typeCompressedLeaf, 0
	if packed {
		data[1], vsize = flagPackedValues, packedValueSize
	}
	binary.LittleEndian.PutUint16(data[2:], uint16(count))
	binary.LittleEndian.PutUint32(data[4:], uint32(next))
	off, prev := headerSize, uint64(0)
	for i := 0; i < count; i++ {
		off += binary.PutUvarint(data[off:], p.key(i)-prev)
		prev = p.key(i)
	}
	for i := 0; i < count; i++ {
		if packed {
			putPacked14(data[off:], p.val(i))
		} else {
			copy(data[off:off+vsize], p.val(i))
		}
		off += vsize
	}
}

// putPacked14 packs an 8-byte value's four uint16 words into 7 bytes of
// 14-bit fields.
func putPacked14(dst, val []byte) {
	a := uint64(binary.LittleEndian.Uint16(val[0:]))
	b := uint64(binary.LittleEndian.Uint16(val[2:]))
	c := uint64(binary.LittleEndian.Uint16(val[4:]))
	d := uint64(binary.LittleEndian.Uint16(val[6:]))
	packed := a | b<<14 | c<<28 | d<<42
	for i := 0; i < packedValueSize; i++ {
		dst[i] = byte(packed >> (8 * i))
	}
}

// getPacked14 is the decode half of putPacked14.
func getPacked14(dst, src []byte) {
	var packed uint64
	for i := 0; i < packedValueSize; i++ {
		packed |= uint64(src[i]) << (8 * i)
	}
	const mask = 1<<14 - 1
	binary.LittleEndian.PutUint16(dst[0:], uint16(packed&mask))
	binary.LittleEndian.PutUint16(dst[2:], uint16(packed>>14&mask))
	binary.LittleEndian.PutUint16(dst[4:], uint16(packed>>28&mask))
	binary.LittleEndian.PutUint16(dst[6:], uint16(packed>>42&mask))
}

// uvarintWord is binary.Uvarint over the eight bytes loaded little-endian
// into w, without its byte loop: the first clear continuation bit gives
// the length, and three mask-and-shift steps squeeze the continuation
// bits out of the payload. Key deltas are one byte inside a quadtree
// block and seven or eight across blocks, the mix a byte loop predicts
// worst. n is 0 when the varint does not end within the word.
func uvarintWord(w uint64) (v uint64, n int) {
	stop := ^w & 0x8080808080808080
	if stop == 0 {
		return 0, 0
	}
	last := bits.TrailingZeros64(stop) // bit 7 of the varint's last byte
	w &= 2<<last - 1
	w = w&0x007f007f007f007f | w&0x7f007f007f007f00>>1
	w = w&0x00003fff00003fff | w&0x3fff00003fff0000>>2
	w = w&0x000000000fffffff | w&0x0fffffff00000000>>4
	return w, last/8 + 1
}

// expandLeaf decodes the v3 leaf in data into img as a v1 image and
// returns the view over it. img is used when it has room for the leaf's
// entries (the write path hands in its scratch); otherwise a buffer of
// the exact size is allocated. Every read is bounds-checked against the
// page, so truncated or bit-flipped pages fail with a typed error
// instead of panicking or over-reading.
func expandLeaf(data []byte, valSize int, img []byte) (page, error) {
	flags := data[1]
	if flags&^byte(flagPackedValues) != 0 {
		return page{}, fmt.Errorf("btree: corrupt page: leaf flags %#x: %w", flags, store.ErrBadPage)
	}
	vsize, packed := valSize, false
	if flags&flagPackedValues != 0 {
		if valSize != 8 {
			return page{}, fmt.Errorf("btree: corrupt page: packed values on a %d-byte-value tree: %w", valSize, store.ErrBadPage)
		}
		vsize, packed = packedValueSize, true
	}
	count := int(binary.LittleEndian.Uint16(data[2:]))
	if count*(1+vsize) > len(data)-headerSize {
		return page{}, fmt.Errorf("btree: corrupt page: %d entries cannot fit the page: %w", count, store.ErrBadPage)
	}
	p := page{img, 8 + valSize}
	if len(img) < p.off(count) {
		p.data = make([]byte, p.off(count))
	}
	p.data[0], p.data[1] = 1, 0
	p.setCount(count)
	p.setNext(store.PageID(binary.LittleEndian.Uint32(data[4:])))
	keys := p.data[headerSize:p.off(count)]
	off, prev := headerSize, uint64(0)
	for i, w := 0, 0; i < count; i, w = i+1, w+p.stride {
		var v uint64
		var vn int
		if off+8 <= len(data) {
			v, vn = uvarintWord(binary.LittleEndian.Uint64(data[off:]))
		}
		if vn == 0 {
			// Within 8 bytes of the page end, or a 9- or 10-byte varint.
			if v, vn = binary.Uvarint(data[off:]); vn <= 0 {
				return page{}, fmt.Errorf("btree: corrupt page: bad varint at entry %d: %w", i, store.ErrBadPage)
			}
		}
		off += vn
		if i > 0 {
			if prev+v < prev {
				return page{}, fmt.Errorf("btree: corrupt page: key delta overflow at entry %d: %w", i, store.ErrBadPage)
			}
			if v == 0 {
				return page{}, fmt.Errorf("btree: corrupt page: zero key delta at entry %d: %w", i, store.ErrBadPage)
			}
		}
		prev += v
		binary.LittleEndian.PutUint64(keys[w:w+8], prev)
	}
	if off+count*vsize > len(data) {
		return page{}, fmt.Errorf("btree: corrupt page: values overrun the page: %w", store.ErrBadPage)
	}
	for i := 0; i < count && valSize > 0; i++ {
		if packed {
			getPacked14(p.val(i), data[off:])
		} else {
			copy(p.val(i), data[off:off+valSize])
		}
		off += vsize
	}
	return p, nil
}

// LeafPageInfo describes the physical format of one encoded B+-tree
// page, for operator tooling and the repo benchmark's btree.* metrics.
type LeafPageInfo struct {
	// Format is "v1" (classic leaf or internal) or "v3" (compressed
	// leaf).
	Format string
	Leaf   bool
	// Entries is the key count.
	Entries int
	// BytesUsed is the header plus encoded entries.
	BytesUsed int
}

// InspectPage classifies an encoded page without fully decoding it. ok
// is false when the bytes do not parse as any btree page format.
func InspectPage(data []byte, valSize int) (LeafPageInfo, bool) {
	if len(data) < headerSize {
		return LeafPageInfo{}, false
	}
	switch data[0] {
	case 0, 1:
		p, err := classic(data, data[0] == 1, valSize)
		if err != nil {
			return LeafPageInfo{}, false
		}
		return LeafPageInfo{Format: "v1", Leaf: data[0] == 1, Entries: p.count(), BytesUsed: p.off(p.count())}, true
	case typeCompressedLeaf:
		p, err := expandLeaf(data, valSize, nil)
		if err != nil {
			return LeafPageInfo{}, false
		}
		return LeafPageInfo{Format: "v3", Leaf: true, Entries: p.count(), BytesUsed: encodedSize(p)}, true
	}
	return LeafPageInfo{}, false
}

// DecodePage decodes a serialized node page — a compressed v3 leaf into
// its v1 image, the work a read path does when such a leaf enters the
// pool; a classic v1 page is only checked, since nothing decodes one —
// and reports its entry count. Benchmarks and inspection tools use it to
// exercise the decode path over raw page bytes without standing up a
// Tree. The image lives on the stack for leaves of up to 16 KB of
// entries, so what is timed is the decode and not the allocator.
func DecodePage(data []byte, valSize int) (int, error) {
	if len(data) < headerSize {
		return 0, fmt.Errorf("btree: corrupt page: %d bytes: %w", len(data), store.ErrBadPage)
	}
	var p page
	var err error
	if data[0] == typeCompressedLeaf {
		var img [16 << 10]byte
		p, err = expandLeaf(data, valSize, img[:])
	} else {
		p, err = classic(data, data[0] == 1, valSize)
	}
	if err != nil {
		return 0, err
	}
	return p.count(), nil
}
