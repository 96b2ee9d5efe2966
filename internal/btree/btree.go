// Package btree implements a disk-based B+-tree over uint64 keys with
// optional fixed-size values.
//
// It is the storage substrate for the linear PMR quadtree of §4 of the
// paper: each PMR q-edge is an 8-byte key combining the block's locational
// code and the segment pointer, stored in key order so that all q-edges of
// one quadtree block (and of all blocks nested inside it) occupy a
// contiguous key range. Nodes are serialized into fixed-size pages behind
// the shared LRU buffer pool, so every structural operation is charged
// realistic disk accesses.
//
// A tree may be created with a fixed per-key value size (NewWithValues);
// the PMR variant discussed in §6 of the paper — storing a small bounding
// rectangle with every q-edge so that segment fetches can be filtered —
// uses an 8-byte value, turning the 2-tuples into the paper's "3-tuples".
package btree

import (
	"errors"
	"fmt"
	"slices"

	"segdb/internal/obs"
	"segdb/internal/store"
)

// ErrDuplicate is returned by Insert when the key is already present.
var ErrDuplicate = errors.New("btree: duplicate key")

// ErrNotFound is returned by Delete when the key is absent.
var ErrNotFound = errors.New("btree: key not found")

const headerSize = 8

// Tree is a disk-resident B+-tree. Keys are unique uint64s; each key may
// carry a fixed-size opaque value.
type Tree struct {
	pool        *store.Pool
	root        store.PageID
	height      int // 1 = root is a leaf
	count       int
	valSize     int
	leafCap     int // max keys in a leaf (classic format)
	internalCap int // max separator keys in an internal node
	compress    bool
	decode      store.DecodeFunc // readNode at this tree's value size
}

// New creates an empty tree with bare keys (no values).
func New(pool *store.Pool) (*Tree, error) { return NewWithValues(pool, 0) }

// NewWithValues creates an empty tree whose leaf entries each carry
// valueSize bytes of payload alongside the key.
func NewWithValues(pool *store.Pool, valueSize int) (*Tree, error) {
	return NewWithOptions(pool, valueSize, 0)
}

// NewWithOptions creates an empty tree; compression > 0 selects the
// delta-coded leaf format (see compress.go), where leaf occupancy is
// governed by the encoded byte footprint instead of a fixed key count.
// Internal nodes always use the classic format. Pages are
// self-describing, so a compressed tree reads classic leaves and vice
// versa; the setting only controls what new writes produce.
func NewWithOptions(pool *store.Pool, valueSize, compression int) (*Tree, error) {
	t, err := newTree(pool, valueSize, compression)
	if err != nil {
		return nil, err
	}
	if err := t.allocEmptyRoot(); err != nil {
		return nil, err
	}
	return t, nil
}

// newTree validates the geometry of a tree over pool and returns it with
// no root yet: the constructors and Restore differ only in where the root
// comes from.
func newTree(pool *store.Pool, valueSize, compression int) (*Tree, error) {
	if valueSize < 0 || valueSize > pool.PageSize()/4 {
		return nil, fmt.Errorf("btree: invalid value size %d", valueSize)
	}
	t := &Tree{
		pool:        pool,
		valSize:     valueSize,
		leafCap:     (pool.PageSize() - headerSize) / (8 + valueSize),
		internalCap: (pool.PageSize() - headerSize) / 12,
		compress:    compression > 0,
	}
	if t.leafCap < 3 || t.internalCap < 3 {
		return nil, fmt.Errorf("btree: page size %d too small", pool.PageSize())
	}
	// Built once so that handing it to GetDecodedObs allocates nothing on
	// the read path.
	t.decode = func(data []byte) (any, error) { return readNode(data, valueSize) }
	return t, nil
}

// allocEmptyRoot makes the tree a single empty leaf.
func (t *Tree) allocEmptyRoot() error {
	id, data, err := t.pool.Allocate()
	if err != nil {
		return err
	}
	t.encode(data, &node{leaf: true, next: store.NilPage})
	t.pool.Unpin(id, true)
	t.root = id
	t.height = 1
	return nil
}

// encode serializes n into a page buffer in the tree's configured
// format: delta-coded leaves when compression is on, the classic layout
// otherwise (and always for internal nodes).
func (t *Tree) encode(data []byte, n *node) {
	if t.compress && n.leaf {
		writeCompressedLeaf(data, n, t.valSize)
		return
	}
	writeNode(data, n, t.valSize)
}

// leafFits reports whether n can be written to one page: a key-count
// check classically, a byte-budget check for delta-coded leaves.
func (t *Tree) leafFits(n *node) bool {
	if !t.compress {
		return len(n.keys) <= t.leafCap
	}
	return encodedLeafSize(n, t.valSize) <= t.pool.PageSize()
}

// leafSplitPoint returns the index where an overflowing leaf splits:
// the key midpoint classically, the byte-balanced point for delta-coded
// leaves (whose entries have variable encoded widths, so the key
// midpoint can leave one side still overflowing).
func (t *Tree) leafSplitPoint(n *node) int {
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

// Len returns the number of keys stored.
func (t *Tree) Len() int { return t.count }

// Height returns the number of levels (1 when the root is a leaf).
func (t *Tree) Height() int { return t.height }

// LeafCapacity returns the maximum number of keys per leaf page.
func (t *Tree) LeafCapacity() int { return t.leafCap }

// ValueSize returns the per-key payload size in bytes.
func (t *Tree) ValueSize() int { return t.valSize }

// Pool returns the buffer pool backing the tree.
func (t *Tree) Pool() *store.Pool { return t.pool }

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

// read is the read paths' node fetch, through the pool's decode-once
// cache: the page request (hit or miss) is charged to o exactly as a byte
// fetch would be (nil charges nothing) and a NodeVisit trace event is
// emitted on success, but only the first request after the page entered
// the pool, or after its bytes changed, decodes it. The node is shared
// with every other reader of the page, so the caller must not modify it
// or anything it points to; it holds no pin and owes no release.
func (t *Tree) read(id store.PageID, o *obs.Op) (*node, error) {
	v, err := t.pool.GetDecodedObs(id, o, t.decode)
	if err != nil {
		return nil, err
	}
	o.NodeVisit(uint32(id))
	return v.(*node), nil
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

// Contains reports whether key is present.
func (t *Tree) Contains(key uint64) (bool, error) {
	found := false
	err := t.Scan(key, key+1, func(uint64) bool {
		found = true
		return false
	}, nil)
	return found, err
}

// Get returns the value stored with key. ok is false when the key is
// absent. For zero-value trees it reports presence with an empty value.
func (t *Tree) Get(key uint64) (val []byte, ok bool, err error) {
	err = t.ScanValues(key, key+1, func(_ uint64, v []byte) bool {
		val = append([]byte(nil), v...)
		ok = true
		return false
	}, nil)
	return val, ok, err
}

// Insert adds a bare key. It returns ErrDuplicate if the key exists.
func (t *Tree) Insert(key uint64) error { return t.InsertValue(key, nil) }

// InsertValue adds a key with its payload (padded or truncated to the
// tree's value size). It returns ErrDuplicate if the key already exists.
func (t *Tree) InsertValue(key uint64, val []byte) error {
	sep, right, split, err := t.insert(t.root, t.height, key, val)
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

// insert descends to the leaf, inserts, and splits on the way back up.
func (t *Tree) insert(id store.PageID, level int, key uint64, val []byte) (sep uint64, right store.PageID, split bool, err error) {
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
		if t.leafFits(n) {
			t.encode(data, n)
			t.pool.Unpin(id, true)
			return 0, store.NilPage, false, nil
		}
		// Split the leaf: right half moves to a new page.
		mid := t.leafSplitPoint(n)
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
	csep, cright, csplit, err := t.insert(child, level-1, key, val)
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

// Scan visits the keys in [lo, hi) in ascending order, stopping early when
// visit returns false. Like every read path of the tree it takes the
// per-query observation o: every page touched is charged to o, and a
// canceled query context aborts at the next page fetch. A nil o charges
// nothing and checks nothing.
func (t *Tree) Scan(lo, hi uint64, visit func(key uint64) bool, o *obs.Op) error {
	return t.ScanValues(lo, hi, func(k uint64, _ []byte) bool { return visit(k) }, o)
}

// ScanValues visits the keys in [lo, hi) with their payloads. The value
// slice aliases a decoded node shared with other readers: visit must not
// modify it. No page is pinned while visit runs.
func (t *Tree) ScanValues(lo, hi uint64, visit func(key uint64, val []byte) bool, o *obs.Op) error {
	if hi <= lo {
		return nil
	}
	// Descend to the leaf that would contain lo.
	id := t.root
	for level := t.height; level > 1; level-- {
		n, err := t.read(id, o)
		if err != nil {
			return err
		}
		id = n.children[upperBound(n.keys, lo)]
	}
	// Walk the leaf chain. A corrupted image could link the chain into a
	// cycle; more hops than the disk has pages proves one.
	hops := 0
	for id != store.NilPage {
		if hops++; hops > t.pool.Disk().PageCount() {
			return fmt.Errorf("btree: leaf chain cycle detected after %d pages", hops-1)
		}
		n, err := t.read(id, o)
		if err != nil {
			return err
		}
		for i := lowerBound(n.keys, lo); i < len(n.keys); i++ {
			if n.keys[i] >= hi || !visit(n.keys[i], n.val(i, t.valSize)) {
				return nil
			}
		}
		id = n.next
	}
	return nil
}

// CountRange returns the number of keys in [lo, hi).
func (t *Tree) CountRange(lo, hi uint64, o *obs.Op) (int, error) {
	n := 0
	err := t.Scan(lo, hi, func(uint64) bool { n++; return true }, o)
	return n, err
}

// Delete removes a key, rebalancing as needed. It returns ErrNotFound if
// the key is absent.
func (t *Tree) Delete(key uint64) error {
	if err := t.delete(t.root, t.height, key); err != nil {
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

func (t *Tree) minKeys(level int) int {
	if level == 1 {
		return t.leafCap / 2
	}
	return t.internalCap / 2
}

// delete removes key from the subtree rooted at id. Parents repair child
// underflows after the recursive call returns.
func (t *Tree) delete(id store.PageID, level int, key uint64) error {
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
	if err := t.delete(child, level-1, key); err != nil {
		return err
	}
	return t.fixChild(id, level, ci)
}

// fixChild rebalances child ci of internal node id if it underflowed.
func (t *Tree) fixChild(id store.PageID, level, ci int) error {
	if t.compress && level-1 == 1 {
		return t.fixLeafCompressed(id, ci)
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

// mergedLeafSize returns the encoded byte footprint of a and b's
// entries combined into one delta-coded leaf. It materializes the
// merge because the value-packing flag is a whole-leaf property: two
// individually packable leaves stay packable, but a packable leaf
// absorbing unpackable values does not.
func mergedLeafSize(a, b *node, valSize int) int {
	m := &node{leaf: true, keys: append(append([]uint64(nil), a.keys...), b.keys...)}
	if valSize > 0 {
		m.vals = append(append([]byte(nil), a.vals...), b.vals...)
	}
	return encodedLeafSize(m, valSize)
}

// fixLeafCompressed rebalances leaf child ci of internal node id when
// leaves are delta-coded. Classic rebalancing reasons in key counts;
// here the occupancy floor is a byte floor (a quarter page), the merge
// test is "does the combined encoding fit one page", and borrowing
// moves entries until the child clears the floor. When no sibling can
// help — both neighbours near-full yet the merge does not fit — the
// leaf is left under the floor, which costs occupancy but breaks no
// search invariant.
func (t *Tree) fixLeafCompressed(id store.PageID, ci int) error {
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
		if mergedLeafSize(ln, cn, t.valSize) <= t.pool.PageSize() {
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
		if mergedLeafSize(cn, rn, t.valSize) <= t.pool.PageSize() {
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

// PersistMeta captures the tree's in-memory state (root page, height, key
// count) for serialization alongside its disk image.
func (t *Tree) PersistMeta() [3]uint64 {
	return [3]uint64{uint64(t.root), uint64(t.height), uint64(t.count)}
}

// Restore reattaches a tree to a disk image previously saved with its
// PersistMeta. The pool must wrap the restored disk; valueSize must match
// the original tree's.
func Restore(pool *store.Pool, valueSize int, meta [3]uint64) (*Tree, error) {
	return RestoreWithOptions(pool, valueSize, 0, meta)
}

// RestoreWithOptions is Restore for trees built with NewWithOptions.
// Pages are self-describing, so a mismatched compression setting still
// reads the image correctly; it only changes the format of future
// writes.
func RestoreWithOptions(pool *store.Pool, valueSize, compression int, meta [3]uint64) (*Tree, error) {
	t, err := newTree(pool, valueSize, compression)
	if err != nil {
		return nil, err
	}
	t.root, t.height, t.count = store.PageID(meta[0]), int(meta[1]), int(meta[2])
	if int(t.root) >= pool.Disk().PageCount() {
		return nil, fmt.Errorf("btree: root page %d outside disk (%d pages): %w", t.root, pool.Disk().PageCount(), store.ErrBadPage)
	}
	// A height beyond 64 is implausible for any restorable page count.
	if t.height < 1 || t.height > 64 {
		return nil, fmt.Errorf("btree: invalid height %d", t.height)
	}
	if t.count < 0 {
		return nil, fmt.Errorf("btree: invalid key count %d", t.count)
	}
	return t, nil
}
