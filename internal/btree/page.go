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
func writeNode(data []byte, n *node, valSize int) {
	if n.leaf {
		data[0] = 1
	} else {
		data[0] = 0
	}
	binary.LittleEndian.PutUint16(data[2:], uint16(len(n.keys)))
	if n.leaf {
		binary.LittleEndian.PutUint32(data[4:], uint32(n.next))
		off := headerSize
		for i, k := range n.keys {
			binary.LittleEndian.PutUint64(data[off:], k)
			off += 8
			if valSize > 0 {
				copy(data[off:off+valSize], n.val(i, valSize))
				off += valSize
			}
		}
		return
	}
	binary.LittleEndian.PutUint32(data[4:], uint32(n.children[0]))
	off := headerSize
	for i, k := range n.keys {
		binary.LittleEndian.PutUint64(data[off:], k)
		binary.LittleEndian.PutUint32(data[off+8:], uint32(n.children[i+1]))
		off += 12
	}
}

// readNode decodes a page into a freshly allocated node: the form the
// write paths edit and re-encode, and the immutable form the read paths
// publish into the pool's decode-once slot (Tree.read).
func readNode(data []byte, valSize int) (*node, error) {
	n := new(node)
	if err := readNodeInto(data, valSize, n); err != nil {
		return nil, err
	}
	return n, nil
}

// readNodeInto decodes a page into n, reusing n's slice capacity. It
// rejects headers whose entry count cannot fit the page (stale or
// corrupted data that survived its checksum, e.g. a page recycled from
// another structure after a crash); on error n is left empty.
func readNodeInto(data []byte, valSize int, n *node) error {
	n.leaf = false
	n.keys = n.keys[:0]
	n.vals = n.vals[:0]
	n.children = n.children[:0]
	n.next = 0
	if data[0] == typeCompressedLeaf {
		return readCompressedLeafInto(data, valSize, n)
	}
	if data[0] > 1 {
		return fmt.Errorf("btree: corrupt page: node type %d: %w", data[0], store.ErrBadPage)
	}
	leaf := data[0] == 1
	count := int(binary.LittleEndian.Uint16(data[2:]))
	entrySize := 12
	if leaf {
		entrySize = 8 + valSize
	}
	if count > (len(data)-headerSize)/entrySize {
		return fmt.Errorf("btree: corrupt page: %d entries exceed page capacity %d: %w", count, (len(data)-headerSize)/entrySize, store.ErrBadPage)
	}
	n.leaf = leaf
	if cap(n.keys) < count {
		n.keys = make([]uint64, count)
	} else {
		n.keys = n.keys[:count]
	}
	if leaf {
		n.next = store.PageID(binary.LittleEndian.Uint32(data[4:]))
		if valSize > 0 {
			if need := count * valSize; cap(n.vals) < need {
				n.vals = make([]byte, need)
			} else {
				n.vals = n.vals[:need]
			}
		}
		off := headerSize
		for i := range n.keys {
			n.keys[i] = binary.LittleEndian.Uint64(data[off:])
			off += 8
			if valSize > 0 {
				copy(n.vals[i*valSize:], data[off:off+valSize])
				off += valSize
			}
		}
		return nil
	}
	if need := count + 1; cap(n.children) < need {
		n.children = make([]store.PageID, need)
	} else {
		n.children = n.children[:need]
	}
	n.children[0] = store.PageID(binary.LittleEndian.Uint32(data[4:]))
	off := headerSize
	for i := 0; i < count; i++ {
		n.keys[i] = binary.LittleEndian.Uint64(data[off:])
		n.children[i+1] = store.PageID(binary.LittleEndian.Uint32(data[off+8:]))
		off += 12
	}
	return nil
}
