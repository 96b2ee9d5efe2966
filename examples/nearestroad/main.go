// Nearestroad compares the three structures of the paper on the workload
// that motivates spatial indexing in §1: "find the nearest subway line to
// a particular house". It loads a full synthetic county into an R*-tree,
// an R+-tree and a PMR quadtree, then runs the same batch of nearest-road
// lookups against each, printing the paper's three cost metrics.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand"
	"time"

	"segdb"
)

func main() {
	county := "Anne Arundel"
	m, err := segdb.GenerateCounty(county)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s county (%s): %d road segments\n\n", m.Name, m.Class, len(m.Segments))

	// "Houses" near the road network: jittered segment endpoints.
	rng := rand.New(rand.NewSource(2026))
	houses := make([]segdb.Point, 500)
	for i := range houses {
		s := m.Segments[rng.Intn(len(m.Segments))]
		houses[i] = segdb.Pt(
			clamp(s.P1.X+int32(rng.Intn(201)-100)),
			clamp(s.P1.Y+int32(rng.Intn(201)-100)))
	}

	kinds := []segdb.Kind{segdb.RStarTree, segdb.RPlusTree, segdb.PMRQuadtree}
	fmt.Printf("%-14s | %10s %12s | %10s %10s %12s\n",
		"index", "build", "size KB", "disk/q", "segcmp/q", "query time")
	for _, kind := range kinds {
		db, err := segdb.Open(kind)
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		if _, err := db.Load(m); err != nil {
			log.Fatal(err)
		}
		buildTime := time.Since(start)

		var sumDist float64
		var cost segdb.QueryStats
		start = time.Now()
		for _, h := range houses {
			res, st, err := db.NearestCtx(context.Background(), h)
			if err != nil {
				log.Fatal(err)
			}
			sumDist += math.Sqrt(res.DistSq)
			cost = cost.Add(st)
		}
		queryTime := time.Since(start)

		n := float64(len(houses))
		fmt.Printf("%-14v | %10v %12d | %10.2f %10.2f %12v\n",
			kind, buildTime.Round(time.Millisecond), db.IndexSizeBytes()/1024,
			float64(cost.DiskAccesses())/n, float64(cost.SegComps)/n,
			queryTime.Round(time.Microsecond))
		_ = sumDist
	}
	fmt.Println("\n(the paper's shape: R+ builds fastest and R* slowest by ~8x;")
	fmt.Println(" for data-correlated query points the PMR quadtree does the")
	fmt.Println(" fewest disk accesses and segment comparisons)")
}

func clamp(v int32) int32 {
	if v < 0 {
		return 0
	}
	if v >= segdb.WorldSize {
		return segdb.WorldSize - 1
	}
	return v
}
