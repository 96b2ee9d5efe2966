package pmr

import (
	"segdb/internal/geom"
	"segdb/internal/obs"
	"segdb/internal/seg"
)

// JoinObs finds every intersecting pair of segments between two PMR
// quadtrees by a synchronized merge of their linear representations — the
// "composition of different operations and data sets" of §2 and §7 of the
// paper, where the regular decomposition's fixed block positions let two
// maps be overlaid with purely sequential scans.
//
// Because blocks of both trees are drawn from the same aligned quadtree
// grid, any two occupied blocks either nest or are disjoint. Merging the
// two key streams in Z-order therefore guarantees that when a block
// arrives, exactly the blocks of the other map that contain it are on that
// map's active stack; candidate pairs are generated only between such
// blocks. Each tree's pages and each segment table are read once,
// sequentially.
//
// visit is called exactly once per unordered intersecting pair; returning
// false stops the join. Both trees' sequential scans, both tables'
// geometry loads, and the pair tests all charge o; block-containment and
// pair-test computations are counted against tree a.
func JoinObs(a, b *Tree, visit func(idA, idB seg.ID, sA, sB geom.Segment) bool, o *obs.Op) error {
	var examined uint64
	defer func() { o.NodeComps(examined) }()
	streamA, err := a.loadEntries(o)
	if err != nil {
		return err
	}
	streamB, err := b.loadEntries(o)
	if err != nil {
		return err
	}
	// Read each segment relation once, sequentially, up front. Fetching
	// geometries lazily at block-arrival time would touch the tables in
	// Z-order — random access — and dominate the join's page traffic.
	geomsA, err := a.loadGeometries(o)
	if err != nil {
		return err
	}
	geomsB, err := b.loadGeometries(o)
	if err != nil {
		return err
	}

	type activeBlock struct {
		code geom.Code
		segs []joinSeg
	}
	var stackA, stackB []activeBlock
	reported := make(map[[2]seg.ID]struct{})

	// test pairs the arriving block's members against one active block of
	// the other map.
	test := func(arrived *activeBlock, other *activeBlock, aFirst bool) (bool, error) {
		for _, sa := range arrived.segs {
			for _, sb := range other.segs {
				ia, ib := sa.id, sb.id
				ga, gb := sa.geom, sb.geom
				if !aFirst {
					ia, ib = ib, ia
					ga, gb = gb, ga
				}
				pk := [2]seg.ID{ia, ib}
				if _, dup := reported[pk]; dup {
					continue
				}
				examined++
				if !geom.SegmentsIntersect(ga, gb) {
					continue
				}
				reported[pk] = struct{}{}
				if !visit(ia, ib, ga, gb) {
					return false, nil
				}
			}
		}
		return true, nil
	}

	ia, ib := 0, 0
	for ia < len(streamA) || ib < len(streamB) {
		// Pick the next block in Z-order; containers (smaller depth at the
		// same Morton base) sort first by key construction. Break ties in
		// favor of A so equal blocks pair exactly once.
		fromA := ib >= len(streamB) ||
			(ia < len(streamA) && streamA[ia].key <= streamB[ib].key)
		var (
			stream []joinEntry
			geoms  []geom.Segment
			idx    *int
			own    *[]activeBlock
			other  *[]activeBlock
		)
		if fromA {
			stream, geoms, idx, own, other = streamA, geomsA, &ia, &stackA, &stackB
		} else {
			stream, geoms, idx, own, other = streamB, geomsB, &ib, &stackB, &stackA
		}
		code := keyCode(stream[*idx].key)
		blk := activeBlock{code: code}
		for *idx < len(stream) && keyCode(stream[*idx].key) == code {
			id := keySeg(stream[*idx].key)
			blk.segs = append(blk.segs, joinSeg{id: id, geom: geoms[id]})
			*idx++
		}
		// Retire blocks that do not contain the new one.
		for _, st := range []*[]activeBlock{own, other} {
			for len(*st) > 0 {
				top := (*st)[len(*st)-1]
				examined++
				if top.code.Contains(code) {
					break
				}
				*st = (*st)[:len(*st)-1]
			}
		}
		// Pair with every containing block of the other map.
		for i := range *other {
			cont, err := test(&blk, &(*other)[i], fromA)
			if err != nil || !cont {
				return err
			}
		}
		*own = append(*own, blk)
	}
	return nil
}

type joinEntry struct{ key uint64 }

type joinSeg struct {
	id   seg.ID
	geom geom.Segment
}

// loadGeometries reads the segment table once in storage order.
func (t *Tree) loadGeometries(o *obs.Op) ([]geom.Segment, error) {
	out := make([]geom.Segment, t.table.Len())
	cur := t.table.Cursor(o)
	defer cur.Close()
	for i := range out {
		s, err := cur.Get(seg.ID(i))
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// loadEntries reads the full linear representation sequentially.
func (t *Tree) loadEntries(o *obs.Op) ([]joinEntry, error) {
	lo, hi := blockRange(geom.RootCode())
	out := make([]joinEntry, 0, t.bt.Len())
	err := t.bt.Scan(lo, hi, func(k uint64) bool {
		out = append(out, joinEntry{key: k})
		return true
	}, o)
	return out, err
}
