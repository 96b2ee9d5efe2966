package btree

// The reference write path: decode, edit, re-encode. Every page it
// touches is decoded into a fresh node, edited as slices and written
// back whole, which makes it slow and obviously right. FuzzBTreeOps and
// TestWritePathMatchesReference drive it beside the page-view write path
// over a second disk and require the same page requests, the same hits
// and the same bytes on every page after every operation.

import (
	"encoding/binary"
	"fmt"
	"slices"

	"segdb/internal/store"
)

// refLeafFits reports whether n can be written to one page: a key-count
// check classically, a byte-budget check for delta-coded leaves.
func (t *Tree) refLeafFits(n *node) bool {
	if !t.compress {
		return len(n.keys) <= t.leafCap
	}
	return encodedLeafSize(n, t.valSize) <= t.pool.PageSize()
}

// refLeafSplitPoint returns the index where an overflowing leaf splits:
// the key midpoint classically, the byte-balanced point for delta-coded
// leaves (whose entries have variable encoded widths, so the key
// midpoint can leave one side still overflowing).
func (t *Tree) refLeafSplitPoint(n *node) int {
	if !t.compress {
		return len(n.keys) / 2
	}
	vsize, _ := leafValSize(n, t.valSize)
	cost := make([]int, len(n.keys))
	total := 0
	for i, k := range n.keys {
		if i == 0 {
			cost[i] = uvarintLen(k) + vsize
		} else {
			cost[i] = uvarintLen(k-n.keys[i-1]) + vsize
		}
		total += cost[i]
	}
	best, bestMax := len(n.keys)/2, int(^uint(0)>>1)
	left := 0
	for mid := 1; mid < len(n.keys); mid++ {
		left += cost[mid-1]
		// The right half re-encodes its first key in full rather than as
		// a delta from the left half's last key.
		right := total - left - cost[mid] + uvarintLen(n.keys[mid]) + vsize
		if m := max(headerSize+left, headerSize+right); m < bestMax {
			best, bestMax = mid, m
		}
	}
	return best
}

// getNode pins page id and decodes it. On success the page stays pinned
// and the frame buffer is returned alongside the decoded node; on failure
// the page is left unpinned.
func (t *Tree) getNode(id store.PageID) (*node, []byte, error) {
	data, err := t.pool.Get(id)
	if err != nil {
		return nil, nil, err
	}
	n, err := readNode(data, t.valSize)
	if err != nil {
		t.pool.Unpin(id, false)
		return nil, nil, err
	}
	return n, data, nil
}

// refInsertValue adds a key with its payload (padded or truncated to the
// tree's value size). It returns ErrDuplicate if the key already exists.
func (t *Tree) refInsertValue(key uint64, val []byte) error {
	sep, right, split, err := t.refInsert(t.root, t.height, key, val)
	if err != nil {
		return err
	}
	if split {
		id, data, err := t.pool.Allocate()
		if err != nil {
			return err
		}
		t.encode(data, &node{
			keys:     []uint64{sep},
			children: []store.PageID{t.root, right},
		})
		t.pool.Unpin(id, true)
		t.root = id
		t.height++
	}
	t.count++
	return nil
}

// refInsert descends to the leaf, inserts, and splits on the way back up.
func (t *Tree) refInsert(id store.PageID, level int, key uint64, val []byte) (sep uint64, right store.PageID, split bool, err error) {
	n, data, err := t.getNode(id)
	if err != nil {
		return 0, store.NilPage, false, err
	}
	if level == 1 { // leaf
		i := lowerBound(n.keys, key)
		if i < len(n.keys) && n.keys[i] == key {
			t.pool.Unpin(id, false)
			return 0, store.NilPage, false, ErrDuplicate
		}
		n.keys = insertAt(n.keys, i, key)
		n.insertVal(i, t.valSize, val)
		if t.refLeafFits(n) {
			t.encode(data, n)
			t.pool.Unpin(id, true)
			return 0, store.NilPage, false, nil
		}
		// Split the leaf: right half moves to a new page.
		mid := t.refLeafSplitPoint(n)
		rn := &node{
			leaf: true,
			keys: append([]uint64(nil), n.keys[mid:]...),
			next: n.next,
		}
		if t.valSize > 0 {
			rn.vals = append([]byte(nil), n.vals[mid*t.valSize:]...)
		}
		rid, rdata, err := t.pool.Allocate()
		if err != nil {
			t.pool.Unpin(id, false)
			return 0, store.NilPage, false, err
		}
		t.encode(rdata, rn)
		t.pool.Unpin(rid, true)
		n.keys = n.keys[:mid]
		if t.valSize > 0 {
			n.vals = n.vals[:mid*t.valSize]
		}
		n.next = rid
		t.encode(data, n)
		t.pool.Unpin(id, true)
		return rn.keys[0], rid, true, nil
	}
	// Internal node: descend into the child for key.
	ci := upperBound(n.keys, key)
	child := n.children[ci]
	t.pool.Unpin(id, false) // release during recursion; re-fetch if child split
	csep, cright, csplit, err := t.refInsert(child, level-1, key, val)
	if err != nil {
		return 0, store.NilPage, false, err
	}
	if !csplit {
		return 0, store.NilPage, false, nil
	}
	n, data, err = t.getNode(id)
	if err != nil {
		return 0, store.NilPage, false, err
	}
	i := upperBound(n.keys, csep)
	n.keys = insertAt(n.keys, i, csep)
	n.children = insertChildAt(n.children, i+1, cright)
	if len(n.keys) <= t.internalCap {
		t.encode(data, n)
		t.pool.Unpin(id, true)
		return 0, store.NilPage, false, nil
	}
	// Split the internal node: the middle key moves up.
	mid := len(n.keys) / 2
	sep = n.keys[mid]
	rn := &node{
		keys:     append([]uint64(nil), n.keys[mid+1:]...),
		children: append([]store.PageID(nil), n.children[mid+1:]...),
	}
	rid, rdata, err := t.pool.Allocate()
	if err != nil {
		t.pool.Unpin(id, false)
		return 0, store.NilPage, false, err
	}
	t.encode(rdata, rn)
	t.pool.Unpin(rid, true)
	n.keys = n.keys[:mid]
	n.children = n.children[:mid+1]
	t.encode(data, n)
	t.pool.Unpin(id, true)
	return sep, rid, true, nil
}

// refDelete removes a key, rebalancing as needed. It returns ErrNotFound if
// the key is absent.
func (t *Tree) refDelete(key uint64) error {
	if err := t.refDeleteFrom(t.root, t.height, key); err != nil {
		return err
	}
	t.count--
	// Collapse the root when it has a single child.
	for t.height > 1 {
		n, _, err := t.getNode(t.root)
		if err != nil {
			return err
		}
		if len(n.keys) > 0 {
			t.pool.Unpin(t.root, false)
			break
		}
		child := n.children[0]
		t.pool.Unpin(t.root, false)
		t.pool.Free(t.root)
		t.root = child
		t.height--
	}
	return nil
}

// refDeleteFrom removes key from the subtree rooted at id. Parents repair child
// underflows after the recursive call returns.
func (t *Tree) refDeleteFrom(id store.PageID, level int, key uint64) error {
	n, data, err := t.getNode(id)
	if err != nil {
		return err
	}
	if level == 1 {
		i := lowerBound(n.keys, key)
		if i >= len(n.keys) || n.keys[i] != key {
			t.pool.Unpin(id, false)
			return ErrNotFound
		}
		n.keys = append(n.keys[:i], n.keys[i+1:]...)
		n.removeVal(i, t.valSize)
		t.encode(data, n)
		t.pool.Unpin(id, true)
		return nil
	}
	ci := upperBound(n.keys, key)
	child := n.children[ci]
	t.pool.Unpin(id, false)
	if err := t.refDeleteFrom(child, level-1, key); err != nil {
		return err
	}
	return t.refFixChild(id, level, ci)
}

// refFixChild rebalances child ci of internal node id if it underflowed.
func (t *Tree) refFixChild(id store.PageID, level, ci int) error {
	if t.compress && level-1 == 1 {
		return t.refFixLeafCompressed(id, ci)
	}
	n, data, err := t.getNode(id)
	if err != nil {
		return err
	}
	child := n.children[ci]
	cn, cdata, err := t.getNode(child)
	if err != nil {
		t.pool.Unpin(id, false)
		return err
	}
	if len(cn.keys) >= t.minKeys(level-1) {
		t.pool.Unpin(child, false)
		t.pool.Unpin(id, false)
		return nil
	}
	// Prefer borrowing from the left sibling, then the right; merge
	// otherwise. All siblings share parent id.
	if ci > 0 {
		left := n.children[ci-1]
		ln, ldata, err := t.getNode(left)
		if err != nil {
			t.pool.Unpin(child, false)
			t.pool.Unpin(id, false)
			return err
		}
		if len(ln.keys) > t.minKeys(level-1) {
			if cn.leaf {
				last := len(ln.keys) - 1
				cn.keys = insertAt(cn.keys, 0, ln.keys[last])
				cn.insertVal(0, t.valSize, ln.val(last, t.valSize))
				ln.keys = ln.keys[:last]
				ln.removeVal(last, t.valSize)
				n.keys[ci-1] = cn.keys[0]
			} else {
				// Rotate through the parent separator.
				cn.keys = insertAt(cn.keys, 0, n.keys[ci-1])
				cn.children = insertChildAt(cn.children, 0, ln.children[len(ln.children)-1])
				n.keys[ci-1] = ln.keys[len(ln.keys)-1]
				ln.keys = ln.keys[:len(ln.keys)-1]
				ln.children = ln.children[:len(ln.children)-1]
			}
			t.encode(ldata, ln)
			t.pool.Unpin(left, true)
			t.encode(cdata, cn)
			t.pool.Unpin(child, true)
			t.encode(data, n)
			t.pool.Unpin(id, true)
			return nil
		}
		t.pool.Unpin(left, false)
	}
	if ci < len(n.children)-1 {
		right := n.children[ci+1]
		rn, rdata, err := t.getNode(right)
		if err != nil {
			t.pool.Unpin(child, false)
			t.pool.Unpin(id, false)
			return err
		}
		if len(rn.keys) > t.minKeys(level-1) {
			if cn.leaf {
				cn.keys = append(cn.keys, rn.keys[0])
				if t.valSize > 0 {
					cn.vals = append(cn.vals, rn.val(0, t.valSize)...)
				}
				rn.keys = rn.keys[1:]
				rn.removeVal(0, t.valSize)
				n.keys[ci] = rn.keys[0]
			} else {
				cn.keys = append(cn.keys, n.keys[ci])
				cn.children = append(cn.children, rn.children[0])
				n.keys[ci] = rn.keys[0]
				rn.keys = rn.keys[1:]
				rn.children = rn.children[1:]
			}
			t.encode(rdata, rn)
			t.pool.Unpin(right, true)
			t.encode(cdata, cn)
			t.pool.Unpin(child, true)
			t.encode(data, n)
			t.pool.Unpin(id, true)
			return nil
		}
		t.pool.Unpin(right, false)
	}
	// Merge with a sibling. Normalize to merging children[mi] and
	// children[mi+1] into children[mi].
	mi := ci
	if ci == len(n.children)-1 {
		mi = ci - 1
	}
	leftID, rightID := n.children[mi], n.children[mi+1]
	var ldata, rdata []byte
	if leftID == child {
		ldata, rdata = cdata, nil
	} else {
		rdata = cdata
	}
	if ldata == nil {
		if ldata, err = t.pool.Get(leftID); err != nil {
			t.pool.Unpin(child, false)
			t.pool.Unpin(id, false)
			return err
		}
	}
	if rdata == nil {
		if rdata, err = t.pool.Get(rightID); err != nil {
			t.pool.Unpin(child, false)
			t.pool.Unpin(id, false)
			return err
		}
	}
	ln, lerr := readNode(ldata, t.valSize)
	rn, rerr := readNode(rdata, t.valSize)
	if lerr != nil || rerr != nil {
		t.pool.Unpin(leftID, false)
		t.pool.Unpin(rightID, false)
		if leftID != child && rightID != child {
			t.pool.Unpin(child, false)
		}
		t.pool.Unpin(id, false)
		if lerr != nil {
			return lerr
		}
		return rerr
	}
	if ln.leaf {
		ln.keys = append(ln.keys, rn.keys...)
		ln.vals = append(ln.vals, rn.vals...)
		ln.next = rn.next
	} else {
		ln.keys = append(ln.keys, n.keys[mi])
		ln.keys = append(ln.keys, rn.keys...)
		ln.children = append(ln.children, rn.children...)
	}
	t.encode(ldata, ln)
	t.pool.Unpin(leftID, true)
	t.pool.Unpin(rightID, false)
	t.pool.Free(rightID)
	n.keys = append(n.keys[:mi], n.keys[mi+1:]...)
	n.children = append(n.children[:mi+1], n.children[mi+2:]...)
	t.encode(data, n)
	t.pool.Unpin(id, true)
	return nil
}

// refMergedLeafSize returns the encoded byte footprint of a and b's
// entries combined into one delta-coded leaf. It materializes the
// merge because the value-packing flag is a whole-leaf property: two
// individually packable leaves stay packable, but a packable leaf
// absorbing unpackable values does not.
func refMergedLeafSize(a, b *node, valSize int) int {
	m := &node{leaf: true, keys: append(append([]uint64(nil), a.keys...), b.keys...)}
	if valSize > 0 {
		m.vals = append(append([]byte(nil), a.vals...), b.vals...)
	}
	return encodedLeafSize(m, valSize)
}

// refFixLeafCompressed rebalances leaf child ci of internal node id when
// leaves are delta-coded. Classic rebalancing reasons in key counts;
// here the occupancy floor is a byte floor (a quarter page), the merge
// test is "does the combined encoding fit one page", and borrowing
// moves entries until the child clears the floor. When no sibling can
// help — both neighbours near-full yet the merge does not fit — the
// leaf is left under the floor, which costs occupancy but breaks no
// search invariant.
func (t *Tree) refFixLeafCompressed(id store.PageID, ci int) error {
	n, data, err := t.getNode(id)
	if err != nil {
		return err
	}
	child := n.children[ci]
	cn, cdata, err := t.getNode(child)
	if err != nil {
		t.pool.Unpin(id, false)
		return err
	}
	floor := t.pool.PageSize() / 4
	if encodedLeafSize(cn, t.valSize) >= floor {
		t.pool.Unpin(child, false)
		t.pool.Unpin(id, false)
		return nil
	}
	if ci > 0 {
		left := n.children[ci-1]
		ln, ldata, err := t.getNode(left)
		if err != nil {
			t.pool.Unpin(child, false)
			t.pool.Unpin(id, false)
			return err
		}
		if refMergedLeafSize(ln, cn, t.valSize) <= t.pool.PageSize() {
			ln.keys = append(ln.keys, cn.keys...)
			ln.vals = append(ln.vals, cn.vals...)
			ln.next = cn.next
			t.encode(ldata, ln)
			t.pool.Unpin(left, true)
			t.pool.Unpin(child, false)
			t.pool.Free(child)
			n.keys = append(n.keys[:ci-1], n.keys[ci:]...)
			n.children = append(n.children[:ci], n.children[ci+1:]...)
			t.encode(data, n)
			t.pool.Unpin(id, true)
			return nil
		}
		// The merge does not fit, so the left sibling holds well over
		// three quarter-pages of entries: it can lend until the child
		// clears the floor without itself underflowing.
		moved := false
		for encodedLeafSize(cn, t.valSize) < floor && len(ln.keys) > 1 &&
			encodedLeafSize(ln, t.valSize) > floor {
			last := len(ln.keys) - 1
			cn.keys = insertAt(cn.keys, 0, ln.keys[last])
			cn.insertVal(0, t.valSize, ln.val(last, t.valSize))
			ln.keys = ln.keys[:last]
			ln.removeVal(last, t.valSize)
			moved = true
		}
		if moved {
			n.keys[ci-1] = cn.keys[0]
			t.encode(ldata, ln)
			t.pool.Unpin(left, true)
			t.encode(cdata, cn)
			t.pool.Unpin(child, true)
			t.encode(data, n)
			t.pool.Unpin(id, true)
			return nil
		}
		t.pool.Unpin(left, false)
	}
	if ci < len(n.children)-1 {
		right := n.children[ci+1]
		rn, rdata, err := t.getNode(right)
		if err != nil {
			t.pool.Unpin(child, false)
			t.pool.Unpin(id, false)
			return err
		}
		if refMergedLeafSize(cn, rn, t.valSize) <= t.pool.PageSize() {
			cn.keys = append(cn.keys, rn.keys...)
			cn.vals = append(cn.vals, rn.vals...)
			cn.next = rn.next
			t.encode(cdata, cn)
			t.pool.Unpin(child, true)
			t.pool.Unpin(right, false)
			t.pool.Free(right)
			n.keys = append(n.keys[:ci], n.keys[ci+1:]...)
			n.children = append(n.children[:ci+1], n.children[ci+2:]...)
			t.encode(data, n)
			t.pool.Unpin(id, true)
			return nil
		}
		moved := false
		for encodedLeafSize(cn, t.valSize) < floor && len(rn.keys) > 1 &&
			encodedLeafSize(rn, t.valSize) > floor {
			cn.keys = append(cn.keys, rn.keys[0])
			if t.valSize > 0 {
				cn.vals = append(cn.vals, rn.val(0, t.valSize)...)
			}
			rn.keys = rn.keys[1:]
			rn.removeVal(0, t.valSize)
			moved = true
		}
		if moved {
			n.keys[ci] = rn.keys[0]
			t.encode(rdata, rn)
			t.pool.Unpin(right, true)
			t.encode(cdata, cn)
			t.pool.Unpin(child, true)
			t.encode(data, n)
			t.pool.Unpin(id, true)
			return nil
		}
		t.pool.Unpin(right, false)
	}
	t.pool.Unpin(child, false)
	t.pool.Unpin(id, false)
	return nil
}

func insertAt(s []uint64, i int, v uint64) []uint64 {
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func insertChildAt(s []store.PageID, i int, v store.PageID) []store.PageID {
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// The reference codec: the decoded node form and its v1 and v3
// encoders and decoders, as the write path used them.

// encode serializes n into a page buffer in the tree's configured
// format: delta-coded leaves when compression is on, the classic layout
// otherwise (and always for internal nodes).
func (t *Tree) encode(data []byte, n *node) {
	if t.compress && n.leaf {
		refWriteCompressedLeaf(data, n, t.valSize)
		return
	}
	writeNode(data, n, t.valSize)
}

// node is the decoded in-memory form of a page.
type node struct {
	leaf     bool
	keys     []uint64
	vals     []byte         // leaf only: len(keys)*valSize payload bytes
	children []store.PageID // internal only; len(children) == len(keys)+1
	next     store.PageID   // leaf only: right sibling
}

// val returns the payload slice of leaf entry i.
func (n *node) val(i, valSize int) []byte {
	if valSize == 0 {
		return nil
	}
	return n.vals[i*valSize : (i+1)*valSize]
}

// insertVal inserts v (padded/truncated to valSize) at entry position i.
func (n *node) insertVal(i, valSize int, v []byte) {
	if valSize == 0 {
		return
	}
	n.vals = slices.Grow(n.vals, valSize)[:len(n.vals)+valSize]
	copy(n.vals[(i+1)*valSize:], n.vals[i*valSize:])
	slot := n.vals[i*valSize : (i+1)*valSize]
	clear(slot[copy(slot, v):])
}

// removeVal deletes the payload of entry i.
func (n *node) removeVal(i, valSize int) {
	if valSize == 0 {
		return
	}
	n.vals = append(n.vals[:i*valSize], n.vals[(i+1)*valSize:]...)
}

// lowerBound returns the first index i with keys[i] >= key.
func lowerBound(keys []uint64, key uint64) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// upperBound returns the first index i with keys[i] > key.
func upperBound(keys []uint64, key uint64) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if keys[mid] <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

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

// refWriteCompressedLeaf encodes a leaf in the v3 format. The caller is
// responsible for ensuring it fits (encodedLeafSize <= len(data)); the
// tree's insert and rebalance paths maintain that as their occupancy
// invariant.
func refWriteCompressedLeaf(data []byte, n *node, valSize int) {
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
