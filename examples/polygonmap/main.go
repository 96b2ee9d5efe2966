// Polygonmap demonstrates the enclosing-polygon query (query 4 of the
// paper) on contrasting county archetypes: city blocks in urban Baltimore
// are a handful of segments while rural Charles county polygons run into
// the hundreds (the paper measures averages of 19 vs 132). The polygon is
// found purely through the disk-resident index: one nearest-line query
// followed by repeated other-endpoint queries walking the face boundary.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"segdb"
)

func main() {
	for _, county := range []string{"Baltimore", "Charles"} {
		m, err := segdb.GenerateCounty(county)
		if err != nil {
			log.Fatal(err)
		}
		db, err := segdb.Open(segdb.PMRQuadtree)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := db.Load(m); err != nil {
			log.Fatal(err)
		}

		// Sample query points next to roads (so we land in real blocks,
		// not the empty margin outside the network).
		rng := rand.New(rand.NewSource(7))
		const trials = 40
		sizes := make([]int, 0, trials)
		var totalCost segdb.QueryStats
		for len(sizes) < trials {
			s := m.Segments[rng.Intn(len(m.Segments))]
			p := segdb.Pt(s.P1.X+1, s.P1.Y+1)
			poly, cost, err := db.EnclosingPolygonCtx(context.Background(), p)
			if err != nil {
				log.Fatal(err)
			}
			sizes = append(sizes, poly.Size())
			totalCost = totalCost.Add(cost)
		}

		min, max, sum := sizes[0], sizes[0], 0
		for _, sz := range sizes {
			if sz < min {
				min = sz
			}
			if sz > max {
				max = sz
			}
			sum += sz
		}
		fmt.Printf("%s (%s): polygons over %d trials: min %d, avg %.1f, max %d segments\n",
			m.Name, m.Class, trials, min, float64(sum)/float64(trials), max)
		fmt.Printf("  avg cost/polygon: %.1f disk accesses, %.1f segment comparisons\n\n",
			float64(totalCost.DiskAccesses())/trials, float64(totalCost.SegComps)/trials)
	}
	fmt.Println("urban blocks are small; rural polygons meander (streams and roads")
	fmt.Println("running in tandem), which is why the paper normalizes Figures 7-9")
	fmt.Println("per map before comparing the structures.")
}
