package btree

import (
	"encoding/binary"
	"fmt"

	"segdb/internal/store"
)

// Page layout (little-endian):
//
//	byte 0      node type: 1 = leaf, 0 = internal
//	bytes 2..3  key count (uint16)
//	bytes 4..7  leaf: right-sibling page id; internal: first child page id
//	leaf:       (key, value) entries at 8 + (8+valSize)*i
//	internal:   (key, child) pairs at 8 + 12*i
//
// Nothing decodes a v1 page: every path reads and edits it in place
// through the page view below.

// internalStride is the size of an internal page's (key, child) entry.
const internalStride = 12

// page is the view of one v1 page: a pinned frame, or the v1 image of a
// compressed leaf. Its entries have a fixed stride, so every field is
// read and written in place and an edit is a copy within the page: no
// decode, no re-encode, no garbage. Entry i of an internal page pairs key
// i with child i+1; child 0 sits in the header.
type page struct {
	data   []byte
	stride int // 8+valSize in a leaf, internalStride in an internal page
}

func (p page) count() int             { return int(binary.LittleEndian.Uint16(p.data[2:])) }
func (p page) setCount(n int)         { binary.LittleEndian.PutUint16(p.data[2:], uint16(n)) }
func (p page) capacity() int          { return (len(p.data) - headerSize) / p.stride }
func (p page) off(i int) int          { return headerSize + i*p.stride }
func (p page) key(i int) uint64       { return binary.LittleEndian.Uint64(p.data[p.off(i) : p.off(i)+8]) }
func (p page) setKey(i int, k uint64) { binary.LittleEndian.PutUint64(p.data[p.off(i):], k) }

// val returns the payload of leaf entry i (nil without values).
func (p page) val(i int) []byte {
	if p.stride == 8 {
		return nil
	}
	return p.data[p.off(i)+8 : p.off(i+1)]
}

// next is a leaf's right sibling, stored where an internal page keeps
// child 0.
func (p page) next() store.PageID      { return p.child(0) }
func (p page) setNext(id store.PageID) { p.setChild(0, id) }
func (p page) entries(i, j int) []byte { return p.data[p.off(i):p.off(j)] }
func (p page) child(i int) store.PageID {
	return store.PageID(binary.LittleEndian.Uint32(p.data[p.childOff(i):]))
}
func (p page) setChild(i int, id store.PageID) {
	binary.LittleEndian.PutUint32(p.data[p.childOff(i):], uint32(id))
}

func (p page) childOff(i int) int {
	if i == 0 {
		return 4
	}
	return p.off(i-1) + 8
}

// classic checks that data holds a v1 page of the given kind whose
// entries fit the page, and returns the view over it.
func classic(data []byte, leaf bool, valSize int) (page, error) {
	typ, p := byte(0), page{data, internalStride}
	if leaf {
		typ, p.stride = 1, 8+valSize
	}
	if data[0] != typ {
		return page{}, fmt.Errorf("btree: corrupt page: node type %d where %d belongs: %w", data[0], typ, store.ErrBadPage)
	}
	if p.count() > p.capacity() {
		return page{}, fmt.Errorf("btree: corrupt page: %d entries exceed page capacity %d: %w", p.count(), p.capacity(), store.ErrBadPage)
	}
	return p, nil
}

// lowerBound returns the first entry i with key(i) >= key.
func (p page) lowerBound(key uint64) int { return p.search(key, false) }

// upperBound returns the first entry i with key(i) > key: the child an
// internal page routes key to.
func (p page) upperBound(key uint64) int { return p.search(key, true) }

// search is the binary search behind lowerBound and upperBound, over the
// entry bytes.
func (p page) search(key uint64, upper bool) int {
	entries, stride := p.data[headerSize:], p.stride
	lo, hi := 0, p.count()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if k := binary.LittleEndian.Uint64(entries[mid*stride:]); k < key || upper && k == key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// insertAt opens entry slot i, moving the entries from i on one stride
// right, and returns the slot. The page must have room for one more.
func (p page) insertAt(i int) []byte {
	n := p.count()
	copy(p.data[p.off(i+1):p.off(n+1)], p.data[p.off(i):p.off(n)])
	p.setCount(n + 1)
	return p.data[p.off(i):p.off(i+1)]
}

// removeAt closes entry slot i. The last slot's old bytes stay past the
// count: saved images are pinned byte for byte, stale bytes included.
func (p page) removeAt(i int) {
	n := p.count()
	copy(p.data[p.off(i):], p.data[p.off(i+1):p.off(n)])
	p.setCount(n - 1)
}

// append copies whole entries, raw page bytes of the same stride, after
// the last one.
func (p page) append(entries []byte) {
	n := p.count()
	copy(p.data[p.off(n):], entries)
	p.setCount(n + len(entries)/p.stride)
}

// putEntry encodes a leaf entry: the key, then val padded with zeros or
// truncated to the slot.
func putEntry(e []byte, key uint64, val []byte) {
	binary.LittleEndian.PutUint64(e, key)
	v := e[8:]
	clear(v[copy(v, val):])
}

// putChildEntry encodes an internal entry: a separator and the child to
// its right.
func putChildEntry(e []byte, key uint64, child store.PageID) {
	binary.LittleEndian.PutUint64(e, key)
	binary.LittleEndian.PutUint32(e[8:], uint32(child))
}
