package btree

import (
	"fmt"
	"math"

	"segdb/internal/store"
)

// Validate checks every structural invariant of the tree and returns an
// error describing the first violation. It is used by the test suite and
// is exported so long-running tools can self-check.
//
// Invariants verified:
//   - all leaves are at the same depth;
//   - keys within every node are strictly increasing;
//   - every key in child i of an internal node lies in the separator range
//     [keys[i-1], keys[i]);
//   - non-root nodes respect the minimum occupancy;
//   - the leaf sibling chain visits exactly the tree's keys in order;
//   - the recorded key count matches the actual number of keys.
func (t *Tree) Validate() error {
	keysSeen := 0
	var prevLast uint64
	first := true
	err := t.validate(t.root, t.height, 0, math.MaxUint64, true, &keysSeen, &prevLast, &first)
	if err != nil {
		return err
	}
	if keysSeen != t.count {
		return fmt.Errorf("btree: count %d but found %d keys", t.count, keysSeen)
	}
	// Verify the leaf chain independently. Key math.MaxUint64 is reserved
	// (Scan's hi bound is exclusive); no caller stores it.
	chainKeys := 0
	if err := t.Scan(0, math.MaxUint64, func(uint64) bool { chainKeys++; return true }, nil); err != nil {
		return err
	}
	if chainKeys != t.count {
		return fmt.Errorf("btree: leaf chain has %d keys, count is %d", chainKeys, t.count)
	}
	return nil
}

func (t *Tree) validate(id store.PageID, level int, lo, hi uint64, isRoot bool, keysSeen *int, prevLast *uint64, first *bool) error {
	n, _, err := t.getNode(id)
	if err != nil {
		return err
	}
	keys := append([]uint64(nil), n.keys...)
	children := append([]store.PageID(nil), n.children...)
	leaf := n.leaf
	encodedSize := 0
	if leaf && t.compress {
		encodedSize = encodedLeafSize(n, t.valSize)
	}
	t.pool.Unpin(id, false)

	if leaf != (level == 1) {
		return fmt.Errorf("btree: page %d leaf=%v at level %d (height %d)", id, leaf, level, t.height)
	}
	if leaf && t.compress {
		// Delta-coded leaves have no fixed key capacity: the hard
		// invariant is that the encoding fits its page, and that non-root
		// leaves are non-empty. The byte-occupancy floor is best-effort
		// (rebalancing may legitimately leave a leaf under it when no
		// sibling can lend), so it is not enforced here.
		if encodedSize > t.pool.PageSize() {
			return fmt.Errorf("btree: page %d overfull: %d encoded bytes, page size %d", id, encodedSize, t.pool.PageSize())
		}
		if !isRoot && len(keys) == 0 {
			return fmt.Errorf("btree: page %d is an empty non-root leaf", id)
		}
	} else {
		if !isRoot && len(keys) < t.minKeys(level) {
			return fmt.Errorf("btree: page %d underfull: %d keys, min %d", id, len(keys), t.minKeys(level))
		}
		capacity := t.internalCap
		if leaf {
			capacity = t.leafCap
		}
		if len(keys) > capacity {
			return fmt.Errorf("btree: page %d overfull: %d keys, cap %d", id, len(keys), capacity)
		}
	}
	for i, k := range keys {
		if i > 0 && keys[i-1] >= k {
			return fmt.Errorf("btree: page %d keys not strictly increasing at %d", id, i)
		}
		if k < lo || k >= hi {
			return fmt.Errorf("btree: page %d key %d outside separator range [%d,%d)", id, k, lo, hi)
		}
	}
	if leaf {
		for _, k := range keys {
			if !*first && k <= *prevLast {
				return fmt.Errorf("btree: global key order violated at %d", k)
			}
			*prevLast = k
			*first = false
		}
		*keysSeen += len(keys)
		return nil
	}
	if len(children) != len(keys)+1 {
		return fmt.Errorf("btree: page %d has %d keys but %d children", id, len(keys), len(children))
	}
	for i, c := range children {
		clo, chi := lo, hi
		if i > 0 {
			clo = keys[i-1]
		}
		if i < len(keys) {
			chi = keys[i]
		}
		if err := t.validate(c, level-1, clo, chi, false, keysSeen, prevLast, first); err != nil {
			return err
		}
	}
	return nil
}
