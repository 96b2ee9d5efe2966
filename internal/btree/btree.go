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
// A tree may be created with a fixed per-key value size (see New);
// the PMR variant discussed in §6 of the paper — storing a small bounding
// rectangle with every q-edge so that segment fetches can be filtered —
// uses an 8-byte value, turning the 2-tuples into the paper's "3-tuples".
package btree

import (
	"errors"
	"fmt"

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
	decode      store.DecodeFunc // expandLeaf at this tree's value size

	// Write-path scratch, reused by every Insert and Delete (writes are
	// serialized): entry encodes the entry being inserted, and scratch
	// holds two v1 images — a full page's entries plus the new one while
	// it splits, or the expanded child and sibling of a compressed leaf.
	entry   []byte
	scratch [2][]byte
}

// New creates an empty tree whose leaf entries each carry valueSize
// bytes of payload alongside the key (0 for bare keys). compression > 0
// selects the delta-coded leaf format (see compress.go), where leaf
// occupancy is governed by the encoded byte footprint instead of a fixed
// key count. Internal nodes always use the classic format. Pages are
// self-describing, so a compressed tree reads classic leaves and vice
// versa; the setting only controls what new writes produce.
func New(pool *store.Pool, valueSize, compression int) (*Tree, error) {
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
		internalCap: (pool.PageSize() - headerSize) / internalStride,
		compress:    compression > 0,
		entry:       make([]byte, max(8+valueSize, internalStride)),
	}
	if t.leafCap < 3 || t.internalCap < 3 {
		return nil, fmt.Errorf("btree: page size %d too small", pool.PageSize())
	}
	// A split needs a page plus an entry; a compressed leaf holds at most
	// one entry per byte, plus the one being inserted.
	size := pool.PageSize() + max(8+valueSize, internalStride)
	if t.compress {
		size = headerSize + (pool.PageSize()-headerSize+1)*(8+valueSize)
	}
	t.scratch = [2][]byte{make([]byte, size), make([]byte, size)}
	// Built once so that handing it to View.Decoded allocates nothing on
	// the read path.
	t.decode = func(data []byte) (any, error) {
		p, err := expandLeaf(data, valueSize, nil)
		return p.data, err
	}
	return t, nil
}

// allocEmptyRoot makes the tree a single empty leaf.
func (t *Tree) allocEmptyRoot() error {
	id, data, err := t.pool.Allocate()
	if err != nil {
		return err
	}
	t.store(data, t.leafImage(data, store.NilPage))
	t.pool.Unpin(id, true)
	t.root = id
	t.height = 1
	return nil
}

// leafImage makes buf an empty v1 leaf with right sibling next.
func (t *Tree) leafImage(buf []byte, next store.PageID) page {
	p := page{buf, 8 + t.valSize}
	buf[0], buf[1] = 1, 0
	p.setCount(0)
	p.setNext(next)
	return p
}

// store writes an edited leaf back to its page bytes: a compressed
// tree encodes the image; an uncompressed tree edited the page itself.
func (t *Tree) store(data []byte, p page) {
	if t.compress {
		writeCompressedLeaf(data, p)
	}
}

// leafSplitPoint returns the index where an overflowing delta-coded leaf
// splits: the byte-balanced point, because its entries have variable
// encoded widths and the key midpoint can leave one side still
// overflowing.
func leafSplitPoint(p page) int {
	vsize := p.stride - 8
	if p.packable() {
		vsize = packedValueSize
	}
	cost := func(i int) int {
		if i == 0 {
			return uvarintLen(p.key(0)) + vsize
		}
		return uvarintLen(p.key(i)-p.key(i-1)) + vsize
	}
	n, total := p.count(), 0
	for i := 0; i < n; i++ {
		total += cost(i)
	}
	best, bestMax := n/2, int(^uint(0)>>1)
	left := 0
	for mid := 1; mid < n; mid++ {
		left += cost(mid - 1)
		// The right half re-encodes its first key in full rather than as
		// a delta from the left half's last key.
		right := total - left - cost(mid) + uvarintLen(p.key(mid)) + vsize
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

// pin is the write path's page fetch: it pins page id and returns the
// view of its bytes, which must be a v1 page of the given kind. A
// compressed leaf met by an uncompressed tree (one restored over a
// compressed image) is first rewritten in the classic layout; the bytes
// then encode the same entries, so that alone does not dirty the page.
// On failure the page is left unpinned.
func (t *Tree) pin(id store.PageID, leaf bool) (page, error) {
	data, err := t.pool.Get(id)
	if err != nil {
		return page{}, err
	}
	if leaf && data[0] == typeCompressedLeaf {
		p, err := expandLeaf(data, t.valSize, t.scratch[0])
		if err == nil && p.count() > t.leafCap {
			err = fmt.Errorf("btree: compressed leaf of %d entries exceeds the classic capacity %d: %w", p.count(), t.leafCap, store.ErrBadPage)
		}
		if err != nil {
			return page{}, t.release(err, id)
		}
		data[0] = 1
		copy(data[2:], p.data[2:p.off(p.count())])
	}
	p, err := classic(data, leaf, t.valSize)
	if err != nil {
		return page{}, t.release(err, id)
	}
	return p, nil
}

// pinLeaf pins leaf page id for an edit and returns its bytes and the
// view to edit: the page itself in an uncompressed tree, its v1 image in
// img in a compressed one, which store then encodes back. On failure the
// page is left unpinned.
func (t *Tree) pinLeaf(id store.PageID, img []byte) ([]byte, page, error) {
	if !t.compress {
		p, err := t.pin(id, true)
		return p.data, p, err
	}
	data, err := t.pool.Get(id)
	if err != nil {
		return nil, page{}, err
	}
	var p page
	if data[0] == typeCompressedLeaf {
		p, err = expandLeaf(data, t.valSize, img)
	} else if p, err = classic(data, true, t.valSize); err == nil {
		// A classic leaf under a compressed tree: its next write
		// compresses it.
		copy(img, data[:p.off(p.count())])
		p.data = img
	}
	if err != nil {
		return nil, page{}, t.release(err, id)
	}
	return data, p, nil
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
		root := page{data, internalStride}
		root.setChild(0, t.root)
		putChildEntry(root.insertAt(0), sep, right)
		t.pool.Unpin(id, true)
		t.root = id
		t.height++
	}
	t.count++
	return nil
}

// insert descends to the leaf, inserts, and splits on the way back up.
func (t *Tree) insert(id store.PageID, level int, key uint64, val []byte) (sep uint64, right store.PageID, split bool, err error) {
	if level == 1 {
		data, p, err := t.pinLeaf(id, t.scratch[0])
		if err != nil {
			return 0, store.NilPage, false, err
		}
		i := p.lowerBound(key)
		if i < p.count() && p.key(i) == key {
			return 0, store.NilPage, false, t.release(ErrDuplicate, id)
		}
		putEntry(t.entry, key, val)
		if t.compress {
			return t.addCompressed(id, data, p, i)
		}
		return t.add(id, p, i)
	}
	// Internal node: descend into the child for key.
	p, err := t.pin(id, false)
	if err != nil {
		return 0, store.NilPage, false, err
	}
	child := p.child(p.upperBound(key))
	t.pool.Unpin(id, false) // release during recursion; re-fetch if child split
	csep, cright, csplit, err := t.insert(child, level-1, key, val)
	if err != nil || !csplit {
		return 0, store.NilPage, false, err
	}
	if p, err = t.pin(id, false); err != nil {
		return 0, store.NilPage, false, err
	}
	putChildEntry(t.entry, csep, cright)
	return t.add(id, p, p.upperBound(csep))
}

// add inserts t.entry at slot i of pinned page id and releases it. A full
// page splits at the midpoint of its entries plus the new one: the lower
// half stays, the upper half moves to a new right page, and the
// separator for the parent comes back. A leaf's separator is the right
// page's first key; an internal page's middle key moves up, and its child
// becomes the right page's child 0.
func (t *Tree) add(id store.PageID, p page, i int) (sep uint64, right store.PageID, split bool, err error) {
	n := p.count()
	if n < p.capacity() {
		copy(p.insertAt(i), t.entry)
		t.pool.Unpin(id, true)
		return 0, store.NilPage, false, nil
	}
	rid, rdata, err := t.pool.Allocate()
	if err != nil {
		return 0, store.NilPage, false, t.release(err, id)
	}
	s := page{t.scratch[0], p.stride}
	copy(s.data, p.data[:p.off(n)])
	copy(s.insertAt(i), t.entry)
	mid := (n + 1) / 2
	r := page{rdata, p.stride}
	sep = s.key(mid)
	if p.data[0] == 1 { // a leaf
		rdata[0] = 1
		r.setNext(p.next())
		r.append(s.entries(mid, n+1))
		p.setNext(rid)
	} else {
		r.setChild(0, s.child(mid+1))
		r.append(s.entries(mid+1, n+1))
	}
	copy(p.entries(0, mid), s.entries(0, mid))
	p.setCount(mid)
	t.commit(rid, id)
	return sep, rid, true, nil
}

// addCompressed inserts t.entry at slot i of the image p of compressed
// leaf id (bytes data) and writes it back, splitting at the
// byte-balanced point when the encoding outgrows the page.
func (t *Tree) addCompressed(id store.PageID, data []byte, p page, i int) (sep uint64, right store.PageID, split bool, err error) {
	copy(p.insertAt(i), t.entry)
	if encodedSize(p) <= t.pool.PageSize() {
		writeCompressedLeaf(data, p)
		t.pool.Unpin(id, true)
		return 0, store.NilPage, false, nil
	}
	rid, rdata, err := t.pool.Allocate()
	if err != nil {
		return 0, store.NilPage, false, t.release(err, id)
	}
	mid := leafSplitPoint(p)
	r := t.leafImage(t.scratch[1], p.next())
	r.append(p.entries(mid, p.count()))
	writeCompressedLeaf(rdata, r)
	t.pool.Unpin(rid, true)
	p.setCount(mid)
	p.setNext(rid)
	writeCompressedLeaf(data, p)
	t.pool.Unpin(id, true)
	return r.key(0), rid, true, nil
}

// Scan visits the keys in [lo, hi) in ascending order, stopping early when
// visit returns false. Like every read path of the tree it takes the
// per-query observation o: every page touched is charged to o, and a
// canceled query context aborts at the next page fetch. A nil o charges
// nothing and checks nothing.
func (t *Tree) Scan(lo, hi uint64, visit func(key uint64) bool, o *obs.Op) error {
	return t.ScanValues(lo, hi, func(k uint64, _ []byte) bool { return visit(k) }, o)
}

// ScanValues visits the keys in [lo, hi) with their payloads. visit
// runs under a read pin on the leaf (see descend): it must neither modify
// val nor keep it past its return, and must not request pages from the
// tree's pool.
func (t *Tree) ScanValues(lo, hi uint64, visit func(key uint64, val []byte) bool, o *obs.Op) error {
	if hi <= lo {
		return nil
	}
	id, err := t.descend(lo, o)
	// Walk the leaf chain. A corrupted image could link the chain into a
	// cycle; more hops than the disk has pages proves one.
	for hops := 0; err == nil && id != store.NilPage; {
		if hops++; hops > t.pool.Disk().PageCount() {
			return fmt.Errorf("btree: leaf chain cycle detected after %d pages", hops-1)
		}
		var v store.View
		if v, err = t.viewObs(id, o); err == nil {
			id, err = t.scanLeaf(v, lo, hi, visit)
			v.Release()
		}
	}
	return err
}

// descend returns the leaf that would hold key. Like every read path of
// the tree it reads each page under a store.View: a v1 page is searched
// in place, with no decode, and only a compressed leaf goes through the
// pool's decode-once slot. The request (hit or miss) is charged to o and
// a NodeVisit trace event emitted, exactly as a byte fetch would be.
func (t *Tree) descend(key uint64, o *obs.Op) (store.PageID, error) {
	id := t.root
	for level := t.height; level > 1; level-- {
		v, err := t.viewObs(id, o)
		if err != nil {
			return store.NilPage, err
		}
		p, err := classic(v.Data(), false, t.valSize)
		if err == nil {
			id = p.child(p.upperBound(key))
		}
		v.Release()
		if err != nil {
			return store.NilPage, err
		}
	}
	return id, nil
}

// viewObs is the read paths' page fetch: a read pin, charged to o.
func (t *Tree) viewObs(id store.PageID, o *obs.Op) (store.View, error) {
	v, err := t.pool.ViewObs(id, o)
	if err == nil {
		o.NodeVisit(uint32(id))
	}
	return v, err
}

// scanLeaf visits the viewed leaf's entries from lo on, and returns its
// right sibling, or NilPage once a key reaches hi or visit stops.
func (t *Tree) scanLeaf(v store.View, lo, hi uint64, visit func(key uint64, val []byte) bool) (store.PageID, error) {
	p, err := t.leaf(v)
	if err != nil {
		return store.NilPage, err
	}
	for i := p.lowerBound(lo); i < p.count(); i++ {
		if k := p.key(i); k >= hi || !visit(k, p.val(i)) {
			return store.NilPage, nil
		}
	}
	return p.next(), nil
}

// leaf returns the view of a viewed leaf's entries: a v1 page in place,
// or the v1 image of a compressed leaf from the decode-once slot.
func (t *Tree) leaf(v store.View) (page, error) {
	if v.Data()[0] != typeCompressedLeaf {
		return classic(v.Data(), true, t.valSize)
	}
	d, err := v.Decoded(t.decode)
	if err != nil {
		return page{}, err
	}
	return page{d.([]byte), 8 + t.valSize}, nil
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
		p, err := t.pin(t.root, false)
		if err != nil {
			return err
		}
		keys, child := p.count(), p.child(0)
		t.pool.Unpin(t.root, false)
		if keys > 0 {
			break
		}
		t.pool.Free(t.root)
		t.root = child
		t.height--
	}
	return nil
}

// release unpins pages an operation read and did not change, in order,
// and passes err on.
func (t *Tree) release(err error, ids ...store.PageID) error {
	for _, id := range ids {
		t.pool.Unpin(id, false)
	}
	return err
}

// commit unpins pages an operation changed, in order.
func (t *Tree) commit(ids ...store.PageID) error {
	for _, id := range ids {
		t.pool.Unpin(id, true)
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
	if level == 1 {
		data, p, err := t.pinLeaf(id, t.scratch[0])
		if err != nil {
			return err
		}
		i := p.lowerBound(key)
		if i >= p.count() || p.key(i) != key {
			return t.release(ErrNotFound, id)
		}
		p.removeAt(i)
		t.store(data, p)
		t.pool.Unpin(id, true)
		return nil
	}
	p, err := t.pin(id, false)
	if err != nil {
		return err
	}
	ci := p.upperBound(key)
	child := p.child(ci)
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
	leaf, floor := level-1 == 1, t.minKeys(level-1)
	n, err := t.pin(id, false)
	if err != nil {
		return err
	}
	child := n.child(ci)
	c, err := t.pin(child, leaf)
	if err != nil {
		return t.release(err, id)
	}
	if c.count() >= floor {
		return t.release(nil, child, id)
	}
	// Prefer borrowing from the left sibling, then the right; merge
	// otherwise. All siblings share parent id.
	if ci > 0 {
		left := n.child(ci - 1)
		l, err := t.pin(left, leaf)
		if err != nil {
			return t.release(err, child, id)
		}
		if last := l.count() - 1; last >= floor {
			if leaf {
				copy(c.insertAt(0), l.entries(last, last+1))
				n.setKey(ci-1, c.key(0))
			} else {
				// Rotate through the parent separator.
				putChildEntry(c.insertAt(0), n.key(ci-1), c.child(0))
				c.setChild(0, l.child(last+1))
				n.setKey(ci-1, l.key(last))
			}
			l.setCount(last)
			return t.commit(left, child, id)
		}
		t.pool.Unpin(left, false)
	}
	if ci < n.count() {
		right := n.child(ci + 1)
		r, err := t.pin(right, leaf)
		if err != nil {
			return t.release(err, child, id)
		}
		if r.count() > floor {
			if leaf {
				c.append(r.entries(0, 1))
				r.removeAt(0)
				n.setKey(ci, r.key(0))
			} else {
				putChildEntry(c.insertAt(c.count()), n.key(ci), r.child(0))
				n.setKey(ci, r.key(0))
				r.setChild(0, r.child(1))
				r.removeAt(0)
			}
			return t.commit(right, child, id)
		}
		t.pool.Unpin(right, false)
	}
	// Merge with a sibling. Normalize to merging children[mi] and
	// children[mi+1] into children[mi].
	mi := min(ci, n.count()-1)
	leftID, rightID := n.child(mi), n.child(mi+1)
	l, r := c, c
	if leftID == child {
		r, err = t.pin(rightID, leaf)
	} else {
		l, err = t.pin(leftID, leaf)
	}
	if err != nil {
		return t.release(err, child, id)
	}
	if leaf {
		l.setNext(r.next())
	} else {
		putChildEntry(l.insertAt(l.count()), n.key(mi), r.child(0))
	}
	l.append(r.entries(0, r.count()))
	t.pool.Unpin(leftID, true)
	t.pool.Unpin(rightID, false)
	t.pool.Free(rightID)
	n.removeAt(mi)
	t.pool.Unpin(id, true)
	return nil
}

// fixLeafCompressed rebalances leaf child ci of internal node id when
// leaves are delta-coded. Classic rebalancing reasons in key counts;
// here the occupancy floor is a byte floor (a quarter page), the merge
// test is "does the combined encoding fit one page", and borrowing
// moves entries until the child clears the floor. When no sibling can
// help — both neighbours near-full yet the merge does not fit — the
// leaf is left under the floor, which costs occupancy but breaks no
// search invariant. The parent is edited in place; the leaves through
// their v1 images.
func (t *Tree) fixLeafCompressed(id store.PageID, ci int) error {
	n, err := t.pin(id, false)
	if err != nil {
		return err
	}
	child := n.child(ci)
	cdata, c, err := t.pinLeaf(child, t.scratch[0])
	if err != nil {
		return t.release(err, id)
	}
	floor := t.pool.PageSize() / 4
	if encodedSize(c) >= floor {
		return t.release(nil, child, id)
	}
	if ci > 0 {
		left := n.child(ci - 1)
		ldata, l, err := t.pinLeaf(left, t.scratch[1])
		if err != nil {
			return t.release(err, child, id)
		}
		if mergedSize(l, c) <= t.pool.PageSize() {
			l.append(c.entries(0, c.count()))
			l.setNext(c.next())
			writeCompressedLeaf(ldata, l)
			t.pool.Unpin(left, true)
			t.pool.Unpin(child, false)
			t.pool.Free(child)
			n.removeAt(ci - 1)
			t.pool.Unpin(id, true)
			return nil
		}
		// The merge does not fit, so the left sibling holds well over
		// three quarter-pages of entries: it can lend until the child
		// clears the floor without itself underflowing.
		moved := false
		for encodedSize(c) < floor && l.count() > 1 && encodedSize(l) > floor {
			last := l.count() - 1
			copy(c.insertAt(0), l.entries(last, last+1))
			l.setCount(last)
			moved = true
		}
		if moved {
			n.setKey(ci-1, c.key(0))
			writeCompressedLeaf(ldata, l)
			writeCompressedLeaf(cdata, c)
			return t.commit(left, child, id)
		}
		t.pool.Unpin(left, false)
	}
	if ci < n.count() {
		right := n.child(ci + 1)
		rdata, r, err := t.pinLeaf(right, t.scratch[1])
		if err != nil {
			return t.release(err, child, id)
		}
		if mergedSize(c, r) <= t.pool.PageSize() {
			c.append(r.entries(0, r.count()))
			c.setNext(r.next())
			writeCompressedLeaf(cdata, c)
			t.pool.Unpin(child, true)
			t.pool.Unpin(right, false)
			t.pool.Free(right)
			n.removeAt(ci)
			t.pool.Unpin(id, true)
			return nil
		}
		moved := false
		for encodedSize(c) < floor && r.count() > 1 && encodedSize(r) > floor {
			c.append(r.entries(0, 1))
			r.removeAt(0)
			moved = true
		}
		if moved {
			n.setKey(ci, r.key(0))
			writeCompressedLeaf(rdata, r)
			writeCompressedLeaf(cdata, c)
			return t.commit(right, child, id)
		}
		t.pool.Unpin(right, false)
	}
	return t.release(nil, child, id)
}

// PersistMeta captures the tree's in-memory state (root page, height, key
// count) for serialization alongside its disk image.
func (t *Tree) PersistMeta() [3]uint64 {
	return [3]uint64{uint64(t.root), uint64(t.height), uint64(t.count)}
}

// Restore reattaches a tree to a disk image previously saved with its
// PersistMeta. The pool must wrap the restored disk; valueSize must
// match the original tree's. Pages are self-describing, so a
// mismatched compression setting still reads the image correctly; it
// only changes the format of future writes.
func Restore(pool *store.Pool, valueSize, compression int, meta [3]uint64) (*Tree, error) {
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
