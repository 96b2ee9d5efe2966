package segdb_test

import (
	"context"
	"fmt"
	"log"

	"segdb"
)

// Example indexes a tiny noded road network in a PMR quadtree and runs
// the five queries of Hoel & Samet (SIGMOD 1992).
func Example() {
	db, err := segdb.Open(segdb.PMRQuadtree)
	if err != nil {
		log.Fatal(err)
	}
	// A square city block; segments share endpoints (a noded map).
	ids := make([]segdb.SegmentID, 4)
	for i, s := range []segdb.Segment{
		segdb.Seg(100, 100, 200, 100),
		segdb.Seg(200, 100, 200, 200),
		segdb.Seg(200, 200, 100, 200),
		segdb.Seg(100, 200, 100, 100),
	} {
		if ids[i], err = db.Add(s); err != nil {
			log.Fatal(err)
		}
	}

	ctx := context.Background()

	// Query 1: segments meeting at a corner.
	n := 0
	db.IncidentAtCtx(ctx, segdb.Pt(200, 100), func(segdb.SegmentID, segdb.Segment) bool {
		n++
		return true
	})
	fmt.Println("incident at corner:", n)

	// Query 3: nearest road to a point inside the block.
	res, _, _ := db.NearestCtx(ctx, segdb.Pt(150, 120))
	fmt.Println("nearest:", res.Seg)

	// Query 4: the enclosing polygon (the block itself).
	poly, _, _ := db.EnclosingPolygonCtx(ctx, segdb.Pt(150, 150))
	fmt.Println("polygon size:", poly.Size())

	// Query 5: window search.
	n = 0
	db.Window(segdb.RectOf(0, 0, 150, 300), func(segdb.SegmentID, segdb.Segment) bool {
		n++
		return true
	})
	fmt.Println("in window:", n)

	// Output:
	// incident at corner: 2
	// nearest: (100,100)-(200,100)
	// polygon size: 4
	// in window: 3
}

// ExampleDB_NearestCtx costs a query in the paper's three metrics.
func ExampleDB_NearestCtx() {
	db, _ := segdb.Open(segdb.RStarTree)
	for x := int32(0); x < 5000; x += 100 {
		db.Add(segdb.Seg(x, 1000, x+80, 1040))
	}
	db.DropCaches() // cold start
	_, cost, _ := db.NearestCtx(context.Background(), segdb.Pt(2500, 1500))
	fmt.Println(cost.DiskAccesses() > 0, cost.SegComps > 0, cost.NodeComps > 0)
	// Output: true true true
}

// ExampleDB_NearestKAppendCtx ranks the three nearest segments.
func ExampleDB_NearestKAppendCtx() {
	db, _ := segdb.Open(segdb.RPlusTree)
	db.Add(segdb.Seg(0, 10, 100, 10))
	db.Add(segdb.Seg(0, 30, 100, 30))
	db.Add(segdb.Seg(0, 90, 100, 90))
	res, _, _ := db.NearestKAppendCtx(context.Background(), segdb.Pt(50, 0), 3, nil)
	for _, r := range res {
		fmt.Println(r.Seg)
	}
	// Output:
	// (0,10)-(100,10)
	// (0,30)-(100,30)
	// (0,90)-(100,90)
}

// ExampleDB_OverlayCtx joins two maps, reporting each crossing once.
func ExampleDB_OverlayCtx() {
	roads, _ := segdb.Open(segdb.PMRQuadtree)
	rails, _ := segdb.Open(segdb.PMRQuadtree)
	roads.Add(segdb.Seg(0, 100, 400, 100)) // east-west road
	rails.Add(segdb.Seg(200, 0, 200, 400)) // north-south rail
	rails.Add(segdb.Seg(300, 0, 390, 90))  // rail that stops short

	crossings := 0
	roads.OverlayCtx(context.Background(), rails, func(_, _ segdb.SegmentID, _, _ segdb.Segment) bool {
		crossings++
		return true
	})
	fmt.Println("crossings:", crossings)
	// Output: crossings: 1
}
