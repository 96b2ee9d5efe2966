// Overlay demonstrates map composition (§7 of the paper): finding every
// crossing between two independently indexed maps — here a county road
// network and a synthetic "utility line" map laid over it. Two PMR
// quadtrees are overlaid with a sequential merge of their linear
// representations; the same overlay through R*-trees requires an index
// nested-loop join, which probes the inner tree once per outer segment.
// The paper's point: the regular, data-independent decomposition of the
// PMR quadtree is what makes the cheap merge possible.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"segdb"
)

func main() {
	roads, err := segdb.GenerateCounty("Washington")
	if err != nil {
		log.Fatal(err)
	}
	roads.Segments = roads.Segments[:20000]
	utilities := utilityLines(4000)
	// Shuffle both relations: tables rarely stay in spatially coherent
	// order after real use, and the index nested-loop join's page traffic
	// depends entirely on that order, while the merge join's does not.
	shuffle := rand.New(rand.NewSource(99))
	shuffle.Shuffle(len(roads.Segments), func(i, j int) {
		roads.Segments[i], roads.Segments[j] = roads.Segments[j], roads.Segments[i]
	})
	shuffle.Shuffle(len(utilities.Segments), func(i, j int) {
		utilities.Segments[i], utilities.Segments[j] = utilities.Segments[j], utilities.Segments[i]
	})
	fmt.Printf("overlaying %d road segments with %d utility segments (shuffled storage order)\n\n",
		len(roads.Segments), len(utilities.Segments))

	for _, kind := range []segdb.Kind{segdb.PMRQuadtree, segdb.RStarTree} {
		a, err := segdb.Open(kind)
		if err != nil {
			log.Fatal(err)
		}
		b, err := segdb.Open(kind)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := a.Load(roads); err != nil {
			log.Fatal(err)
		}
		if _, err := b.Load(utilities); err != nil {
			log.Fatal(err)
		}
		a.DropCaches()
		b.DropCaches()
		before := a.Metrics().DiskAccesses + b.Metrics().DiskAccesses

		crossings := 0
		start := time.Now()
		_, err = a.OverlayCtx(context.Background(), b, func(_, _ segdb.SegmentID, _, _ segdb.Segment) bool {
			crossings++
			return true
		})
		if err != nil {
			log.Fatal(err)
		}
		accesses := a.Metrics().DiskAccesses + b.Metrics().DiskAccesses - before
		fmt.Printf("%-14v %6d crossings, %7d disk accesses, %8v\n",
			kind, crossings, accesses, time.Since(start).Round(time.Millisecond))
	}
	fmt.Println("\n(two PMR quadtrees merge sequentially regardless of storage order;")
	fmt.Println(" the R*-trees fall back to an index nested-loop join whose inner")
	fmt.Println(" probes follow the outer relation's order — ruinous once shuffled)")
}

// utilityLines fabricates a sparse web of long transmission corridors:
// jittered horizontal and vertical lines spanning the map, chopped into
// pole-to-pole segments. Corridors cross each other but never themselves.
func utilityLines(n int) *segdb.MapData {
	rng := rand.New(rand.NewSource(31))
	m := &segdb.MapData{Name: "utilities", Class: "synthetic"}
	const step = 400
	spans := segdb.WorldSize / step
	corridors := n / (2 * spans)
	for c := 0; c < corridors; c++ {
		// One horizontal and one vertical corridor per iteration.
		y := int32(rng.Intn(segdb.WorldSize))
		x := int32(rng.Intn(segdb.WorldSize))
		for i := 0; i < spans; i++ {
			x0 := int32(i * step)
			x1 := clampW(x0 + step)
			jy0 := clampW(y + int32(rng.Intn(61)) - 30)
			jy1 := clampW(y + int32(rng.Intn(61)) - 30)
			m.Segments = append(m.Segments, segdb.Segment{P1: segdb.Pt(x0, jy0), P2: segdb.Pt(x1, jy1)})

			y0 := int32(i * step)
			y1 := clampW(y0 + step)
			jx0 := clampW(x + int32(rng.Intn(61)) - 30)
			jx1 := clampW(x + int32(rng.Intn(61)) - 30)
			m.Segments = append(m.Segments, segdb.Segment{P1: segdb.Pt(jx0, y0), P2: segdb.Pt(jx1, y1)})
		}
	}
	return m
}

func clampW(v int32) int32 {
	if v < 0 {
		return 0
	}
	if v >= segdb.WorldSize {
		return segdb.WorldSize - 1
	}
	return v
}
