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

// validate checks the subtree at id. It reads each page as the read
// paths do, and holds no pin while it descends.
func (t *Tree) validate(id store.PageID, level int, lo, hi uint64, isRoot bool, keysSeen *int, prevLast *uint64, first *bool) error {
	v, err := t.viewObs(id, nil)
	if err != nil {
		return err
	}
	leaf := level == 1
	p, err := classic(v.Data(), false, t.valSize)
	if leaf {
		p, err = t.leaf(v)
	}
	if err != nil {
		v.Release()
		return fmt.Errorf("btree: page %d at level %d (height %d): %w", id, level, t.height, err)
	}
	keys, children := make([]uint64, p.count()), make([]store.PageID, 0, p.count()+1)
	for i := range keys {
		keys[i] = p.key(i)
	}
	for i := 0; !leaf && i <= len(keys); i++ {
		children = append(children, p.child(i))
	}
	size := 0
	if leaf && t.compress {
		size = encodedSize(p)
	}
	v.Release()

	switch {
	case leaf && t.compress:
		// Delta-coded leaves have no fixed key capacity: the hard
		// invariant is that the encoding fits its page, and that non-root
		// leaves are non-empty. The byte-occupancy floor is best-effort
		// (rebalancing may legitimately leave a leaf under it when no
		// sibling can lend), so it is not enforced here.
		if size > t.pool.PageSize() {
			return fmt.Errorf("btree: page %d overfull: %d encoded bytes, page size %d", id, size, t.pool.PageSize())
		}
		if !isRoot && len(keys) == 0 {
			return fmt.Errorf("btree: page %d is an empty non-root leaf", id)
		}
	case !isRoot && len(keys) < t.minKeys(level):
		return fmt.Errorf("btree: page %d underfull: %d keys, min %d", id, len(keys), t.minKeys(level))
	case leaf && len(keys) > t.leafCap: // a compressed leaf under an uncompressed tree
		return fmt.Errorf("btree: page %d overfull: %d keys, cap %d", id, len(keys), t.leafCap)
	}
	for i, k := range keys {
		if i > 0 && keys[i-1] >= k {
			return fmt.Errorf("btree: page %d keys not strictly increasing at %d", id, i)
		}
		if k < lo || k >= hi {
			return fmt.Errorf("btree: page %d key %d outside separator range [%d,%d)", id, k, lo, hi)
		}
		if leaf {
			if !*first && k <= *prevLast {
				return fmt.Errorf("btree: global key order violated at %d", k)
			}
			*prevLast, *first = k, false
		}
	}
	if leaf {
		*keysSeen += len(keys)
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
