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
// buy little. Pages are self-describing: readNodeInto dispatches on the
// type byte, so one tree may mix classic and compressed leaves.
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

// valuesPackable reports whether every 8-byte value in vals consists of
// four uint16 words below 1<<14, the precondition for 14-bit packing.
func valuesPackable(vals []byte, valSize int) bool {
	if valSize != 8 {
		return false
	}
	for off := 0; off+8 <= len(vals); off += 8 {
		for i := 0; i < 8; i += 2 {
			if binary.LittleEndian.Uint16(vals[off+i:]) >= 1<<14 {
				return false
			}
		}
	}
	return true
}

// leafValSize returns the per-entry value footprint for a compressed
// leaf holding n's values.
func leafValSize(n *node, valSize int) (vsize int, packed bool) {
	if valSize == 8 && valuesPackable(n.vals, valSize) {
		return packedValueSize, true
	}
	return valSize, false
}

// encodedLeafSize returns the byte footprint of n as a compressed leaf.
func encodedLeafSize(n *node, valSize int) int {
	vsize, _ := leafValSize(n, valSize)
	size := headerSize + len(n.keys)*vsize
	prev := uint64(0)
	for i, k := range n.keys {
		if i == 0 {
			size += uvarintLen(k)
		} else {
			size += uvarintLen(k - prev)
		}
		prev = k
	}
	return size
}

// writeCompressedLeaf encodes a leaf in the v3 format. The caller is
// responsible for ensuring it fits (encodedLeafSize <= len(data)); the
// tree's insert and rebalance paths maintain that as their occupancy
// invariant.
func writeCompressedLeaf(data []byte, n *node, valSize int) {
	vsize, packed := leafValSize(n, valSize)
	data[0] = typeCompressedLeaf
	data[1] = 0
	if packed {
		data[1] = flagPackedValues
	}
	binary.LittleEndian.PutUint16(data[2:], uint16(len(n.keys)))
	binary.LittleEndian.PutUint32(data[4:], uint32(n.next))
	off := headerSize
	prev := uint64(0)
	for i, k := range n.keys {
		if i == 0 {
			off += binary.PutUvarint(data[off:], k)
		} else {
			off += binary.PutUvarint(data[off:], k-prev)
		}
		prev = k
	}
	for i := 0; i < len(n.keys); i++ {
		v := n.val(i, valSize)
		if packed {
			putPacked14(data[off:], v)
		} else {
			copy(data[off:off+valSize], v)
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

// readCompressedLeafInto decodes a v3 leaf into n (the dispatch target
// of readNodeInto for type byte 2). Every read is bounds-checked against
// the page, so truncated or bit-flipped pages fail with a typed error
// instead of panicking or over-reading.
func readCompressedLeafInto(data []byte, valSize int, n *node) error {
	flags := data[1]
	if flags&^byte(flagPackedValues) != 0 {
		return fmt.Errorf("btree: corrupt page: leaf flags %#x: %w", flags, store.ErrBadPage)
	}
	vsize, packed := valSize, false
	if flags&flagPackedValues != 0 {
		if valSize != 8 {
			return fmt.Errorf("btree: corrupt page: packed values on a %d-byte-value tree: %w", valSize, store.ErrBadPage)
		}
		vsize, packed = packedValueSize, true
	}
	count := int(binary.LittleEndian.Uint16(data[2:]))
	if count*(1+vsize) > len(data)-headerSize {
		return fmt.Errorf("btree: corrupt page: %d entries cannot fit the page: %w", count, store.ErrBadPage)
	}
	n.leaf = true
	n.next = store.PageID(binary.LittleEndian.Uint32(data[4:]))
	if cap(n.keys) < count {
		n.keys = make([]uint64, count)
	} else {
		n.keys = n.keys[:count]
	}
	off := headerSize
	prev := uint64(0)
	for i := 0; i < count; i++ {
		var v uint64
		var vn int
		if off+8 <= len(data) {
			v, vn = uvarintWord(binary.LittleEndian.Uint64(data[off:]))
		}
		if vn == 0 {
			// Within 8 bytes of the page end, or a 9- or 10-byte varint.
			if v, vn = binary.Uvarint(data[off:]); vn <= 0 {
				n.reset()
				return fmt.Errorf("btree: corrupt page: bad varint at entry %d: %w", i, store.ErrBadPage)
			}
		}
		off += vn
		if i == 0 {
			prev = v
		} else {
			next := prev + v
			if next < prev {
				n.reset()
				return fmt.Errorf("btree: corrupt page: key delta overflow at entry %d: %w", i, store.ErrBadPage)
			}
			if v == 0 {
				n.reset()
				return fmt.Errorf("btree: corrupt page: zero key delta at entry %d: %w", i, store.ErrBadPage)
			}
			prev = next
		}
		n.keys[i] = prev
	}
	if off+count*vsize > len(data) {
		n.reset()
		return fmt.Errorf("btree: corrupt page: values overrun the page: %w", store.ErrBadPage)
	}
	if valSize > 0 {
		if need := count * valSize; cap(n.vals) < need {
			n.vals = make([]byte, need)
		} else {
			n.vals = n.vals[:need]
		}
		for i := 0; i < count; i++ {
			if packed {
				getPacked14(n.vals[i*valSize:], data[off:])
			} else {
				copy(n.vals[i*valSize:], data[off:off+valSize])
			}
			off += vsize
		}
	}
	return nil
}

// reset clears a node back to the empty decode state after a failed
// parse.
func (n *node) reset() {
	n.leaf = false
	n.keys = n.keys[:0]
	n.vals = n.vals[:0]
	n.children = n.children[:0]
	n.next = 0
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
		leaf := data[0] == 1
		count := int(binary.LittleEndian.Uint16(data[2:]))
		entrySize := 12
		if leaf {
			entrySize = 8 + valSize
		}
		if count > (len(data)-headerSize)/entrySize {
			return LeafPageInfo{}, false
		}
		return LeafPageInfo{
			Format:    "v1",
			Leaf:      leaf,
			Entries:   count,
			BytesUsed: headerSize + count*entrySize,
		}, true
	case typeCompressedLeaf:
		var n node
		if err := readCompressedLeafInto(data, valSize, &n); err != nil {
			return LeafPageInfo{}, false
		}
		return LeafPageInfo{
			Format:    "v3",
			Leaf:      true,
			Entries:   len(n.keys),
			BytesUsed: encodedLeafSize(&n, valSize),
		}, true
	}
	return LeafPageInfo{}, false
}

// DecodePage fully decodes a serialized node page — classic v1 or a
// compressed v3 leaf — and reports its entry count. Benchmarks and
// inspection tools use it to exercise the decode path over raw page bytes
// without standing up a Tree. The node lives on the stack for leaves of
// up to 512 keys and 1 KB of values, so what is timed is the decode and
// not the allocator (a fuller leaf still decodes, into the heap).
func DecodePage(data []byte, valSize int) (int, error) {
	var keys [512]uint64
	var vals [1024]byte
	n := node{keys: keys[:0], vals: vals[:0]}
	if err := readNodeInto(data, valSize, &n); err != nil {
		return 0, err
	}
	return len(n.keys), nil
}
