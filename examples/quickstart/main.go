// Quickstart: open a line segment database, add a tiny road network, and
// run all five queries of Hoel & Samet (SIGMOD 1992) against it.
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"segdb"
)

func main() {
	// Any of segdb.RStarTree, segdb.RPlusTree, segdb.PMRQuadtree,
	// segdb.KDBTree, segdb.UniformGrid; nil options = the paper's
	// defaults (1 KB pages, 16-page buffer pool).
	db, err := segdb.Open(segdb.PMRQuadtree)
	if err != nil {
		log.Fatal(err)
	}

	// A small city block with a cul-de-sac, on the 16384x16384 grid. Like
	// TIGER data the map is "noded": 1st Ave is split where Short Ct
	// meets it, so segments only touch at shared endpoints.
	roads := []segdb.Segment{
		segdb.Seg(1000, 1000, 2000, 1000), // Main St (south)
		segdb.Seg(2000, 1000, 2000, 1500), // 1st Ave (east, lower half)
		segdb.Seg(2000, 1500, 2000, 2000), // 1st Ave (east, upper half)
		segdb.Seg(2000, 2000, 1000, 2000), // Oak St (north)
		segdb.Seg(1000, 2000, 1000, 1000), // 2nd Ave (west)
		segdb.Seg(2000, 1500, 1600, 1500), // Short Ct (dead end)
	}
	ids := make([]segdb.SegmentID, len(roads))
	for i, r := range roads {
		if ids[i], err = db.Add(r); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("indexed %d segments in a %v (%d bytes of index pages)\n\n",
		db.Len(), db.Kind(), db.IndexSizeBytes())

	// Every query takes a context (for cancellation and deadlines) and
	// returns its cost in the paper's currencies alongside the answer.
	ctx := context.Background()

	// Query 1: which roads meet at the corner of Main St and 1st Ave?
	fmt.Println("query 1 — segments incident at (2000,1000):")
	db.IncidentAtCtx(ctx, segdb.Pt(2000, 1000), func(id segdb.SegmentID, s segdb.Segment) bool {
		fmt.Printf("  #%d %v\n", id, s)
		return true
	})

	// Query 2: starting from Main St's west end, who meets its east end?
	fmt.Println("query 2 — segments at the other endpoint of Main St:")
	db.OtherEndpointCtx(ctx, ids[0], segdb.Pt(1000, 1000), func(id segdb.SegmentID, s segdb.Segment) bool {
		fmt.Printf("  #%d %v\n", id, s)
		return true
	})

	// Query 3: the nearest road to a house in the block.
	res, _, err := db.NearestCtx(ctx, segdb.Pt(1500, 1400))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query 3 — nearest road to (1500,1400): #%d %v at distance %.1f\n",
		res.ID, res.Seg, math.Sqrt(res.DistSq))

	// Query 4: the polygon (city block) enclosing the house. The dead-end
	// Short Ct is walked on both sides, so it appears twice.
	poly, _, err := db.EnclosingPolygonCtx(ctx, segdb.Pt(1500, 1400))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query 4 — enclosing polygon has %d boundary edges: %v\n", poly.Size(), poly.IDs)

	// Query 5: everything in a window around the block's SE corner.
	fmt.Println("query 5 — window [1800,900]-[2100,1600]:")
	cost, err := db.WindowCtx(ctx, segdb.RectOf(1800, 900, 2100, 1600), func(id segdb.SegmentID, s segdb.Segment) bool {
		fmt.Printf("  #%d %v\n", id, s)
		return true
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nthe window query cost %d disk accesses, %d segment comparisons, %d bucket computations\n",
		cost.DiskAccesses(), cost.SegComps, cost.NodeComps)
}
