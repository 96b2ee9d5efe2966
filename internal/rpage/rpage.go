// Package rpage provides the on-page node format shared by the R-tree
// variants (R*-tree and the hybrid R+-tree).
//
// Per §4 of the paper, a node is a set of 2-tuples (R, O): five 4-byte
// entries each — four coordinates of the rectangle R and one pointer O to
// either a child page or a segment-table slot. With 1 KB pages this yields
// a maximum of 50 tuples per node, exactly as the paper computes.
package rpage

import (
	"encoding/binary"
	"fmt"

	"segdb/internal/geom"
	"segdb/internal/kernel"
	"segdb/internal/store"
)

// EntrySize is the 20-byte footprint of one (rect, pointer) tuple.
const EntrySize = 20

// HeaderSize is the per-node header: a leaf flag and an entry count.
const HeaderSize = 4

// Entry is one (R, O) tuple. For leaf nodes Ptr is a segment-table ID;
// for internal nodes it is a child page ID.
type Entry struct {
	Rect geom.Rect
	Ptr  uint32
}

// Node is the decoded array-of-entries form of an R-tree page, used by
// the structural paths (insert, delete, validation) where entries are
// manipulated as tuples.
type Node struct {
	Leaf    bool
	Entries []Entry
}

// SoA is the decoded struct-of-arrays form of an R-tree page: the
// entries' rectangle coordinates live in parallel lanes so the compare
// kernels (internal/kernel) can sweep them branch-free, one cache line
// of a single coordinate at a time. SoA nodes are immutable after
// DecodeSoA and are shared — the buffer pool's decode-once cache hands
// the same *SoA to every traversal of a warm page — so holders must
// never modify the lanes.
type SoA struct {
	Leaf                   bool
	Xmin, Ymin, Xmax, Ymax []int32
	Ptr                    []uint32

	// Packed holds the SWAR form of every rectangle (kernel.PackRect)
	// when all of the node's coordinates fit the packable world domain,
	// and is nil otherwise. The search paths prefer the packed kernels
	// when it is present and fall back to the int32 lanes when it is not
	// (out-of-world coordinates can only come from corrupt or foreign
	// page images; both paths return identical masks).
	Packed []uint64
}

// Len returns the number of entries in the node.
func (n *SoA) Len() int { return len(n.Ptr) }

// Rect reassembles entry i's rectangle from the lanes.
func (n *SoA) Rect(i int) geom.Rect {
	return geom.Rect{
		Min: geom.Point{X: n.Xmin[i], Y: n.Ymin[i]},
		Max: geom.Point{X: n.Xmax[i], Y: n.Ymax[i]},
	}
}

// DecodeSoA decodes a page into a freshly allocated struct-of-arrays
// node. All four coordinate lanes share one backing array, so a decode
// costs two allocations (plus the node itself) and the lanes stay
// adjacent in memory. Validation matches ReadInto: a node type byte
// above 1 or an entry count beyond the page's capacity is rejected as
// corruption.
func DecodeSoA(data []byte) (*SoA, error) {
	if data[0] == typeCompressedInternal || data[0] == typeCompressedLeaf {
		return decodeCompressedSoA(data)
	}
	if data[0] > 1 {
		return nil, fmt.Errorf("rpage: corrupt page: node type %d: %w", data[0], store.ErrBadPage)
	}
	count := int(binary.LittleEndian.Uint16(data[2:]))
	if max := Capacity(len(data)); count > max {
		return nil, fmt.Errorf("rpage: corrupt page: %d entries exceed page capacity %d: %w", count, max, store.ErrBadPage)
	}
	lanes := make([]int32, 4*count)
	n := &SoA{
		Leaf: data[0] == 1,
		Xmin: lanes[0*count : 1*count : 1*count],
		Ymin: lanes[1*count : 2*count : 2*count],
		Xmax: lanes[2*count : 3*count : 3*count],
		Ymax: lanes[3*count : 4*count : 4*count],
		Ptr:  make([]uint32, count),
	}
	off := HeaderSize
	packed := make([]uint64, count)
	packable := true
	for i := 0; i < count; i++ {
		n.Xmin[i] = int32(binary.LittleEndian.Uint32(data[off+0:]))
		n.Ymin[i] = int32(binary.LittleEndian.Uint32(data[off+4:]))
		n.Xmax[i] = int32(binary.LittleEndian.Uint32(data[off+8:]))
		n.Ymax[i] = int32(binary.LittleEndian.Uint32(data[off+12:]))
		n.Ptr[i] = binary.LittleEndian.Uint32(data[off+16:])
		if packable {
			var ok bool
			packed[i], ok = kernel.PackRect(n.Xmin[i], n.Ymin[i], n.Xmax[i], n.Ymax[i])
			packable = ok
		}
		off += EntrySize
	}
	if packable {
		n.Packed = packed
	}
	return n, nil
}

// Capacity returns the maximum number of entries a page of the given size
// can hold (the M of the R-tree order).
func Capacity(pageSize int) int { return (pageSize - HeaderSize) / EntrySize }

// Write encodes n into the page buffer.
func Write(data []byte, n *Node) {
	if n.Leaf {
		data[0] = 1
	} else {
		data[0] = 0
	}
	binary.LittleEndian.PutUint16(data[2:], uint16(len(n.Entries)))
	off := HeaderSize
	for _, e := range n.Entries {
		binary.LittleEndian.PutUint32(data[off+0:], uint32(e.Rect.Min.X))
		binary.LittleEndian.PutUint32(data[off+4:], uint32(e.Rect.Min.Y))
		binary.LittleEndian.PutUint32(data[off+8:], uint32(e.Rect.Max.X))
		binary.LittleEndian.PutUint32(data[off+12:], uint32(e.Rect.Max.Y))
		binary.LittleEndian.PutUint32(data[off+16:], e.Ptr)
		off += EntrySize
	}
}

// ReadInto decodes a page into n, reusing n's entry slice capacity. It
// rejects headers whose entry count cannot fit the page (stale or
// corrupted data that survived its checksum, e.g. a page recycled from
// another structure after a crash); on error n is left empty.
func ReadInto(data []byte, n *Node) error {
	n.Leaf = false
	n.Entries = n.Entries[:0]
	if data[0] == typeCompressedInternal || data[0] == typeCompressedLeaf {
		return readCompressedInto(data, n)
	}
	if data[0] > 1 {
		return fmt.Errorf("rpage: corrupt page: node type %d: %w", data[0], store.ErrBadPage)
	}
	count := int(binary.LittleEndian.Uint16(data[2:]))
	if max := Capacity(len(data)); count > max {
		return fmt.Errorf("rpage: corrupt page: %d entries exceed page capacity %d: %w", count, max, store.ErrBadPage)
	}
	n.Leaf = data[0] == 1
	if cap(n.Entries) < count {
		n.Entries = make([]Entry, count)
	} else {
		n.Entries = n.Entries[:count]
	}
	off := HeaderSize
	for i := range n.Entries {
		n.Entries[i] = Entry{
			Rect: geom.Rect{
				Min: geom.Point{
					X: int32(binary.LittleEndian.Uint32(data[off+0:])),
					Y: int32(binary.LittleEndian.Uint32(data[off+4:])),
				},
				Max: geom.Point{
					X: int32(binary.LittleEndian.Uint32(data[off+8:])),
					Y: int32(binary.LittleEndian.Uint32(data[off+12:])),
				},
			},
			Ptr: binary.LittleEndian.Uint32(data[off+16:]),
		}
		off += EntrySize
	}
	return nil
}

// MBR returns the minimum bounding rectangle of the node's entries. It
// must not be called on an empty node.
func (n *Node) MBR() geom.Rect {
	r := n.Entries[0].Rect
	for _, e := range n.Entries[1:] {
		r = r.Union(e.Rect)
	}
	return r
}
