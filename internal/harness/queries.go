package harness

import (
	"fmt"
	"math"
	"math/rand"

	"segdb/internal/core"
	"segdb/internal/geom"
	"segdb/internal/pmr"
	"segdb/internal/seg"
	"segdb/internal/tiger"
)

// QueryKind enumerates the seven query variants of §6 (five queries, with
// the nearest-line and polygon queries run under both random point
// generation methods).
type QueryKind int

// Query kinds, ordered as in Table 2.
const (
	Point1        QueryKind = iota // q1: segments incident at an endpoint
	Point2                         // q2: segments incident at the other endpoint
	Nearest2Stage                  // q3, two-stage (data-correlated) points
	Nearest1Stage                  // q3, one-stage (uniform) points
	Polygon2Stage                  // q4, two-stage points
	Polygon1Stage                  // q4, one-stage points
	Range                          // q5: window of 0.01% of the area
	NumQueryKinds
)

// String implements fmt.Stringer.
func (k QueryKind) String() string {
	switch k {
	case Point1:
		return "Point1"
	case Point2:
		return "Point2"
	case Nearest2Stage:
		return "Nearest(2-stage)"
	case Nearest1Stage:
		return "Nearest(1-stage)"
	case Polygon2Stage:
		return "Polygon(2-stage)"
	case Polygon1Stage:
		return "Polygon(1-stage)"
	case Range:
		return "Range"
	}
	return fmt.Sprintf("QueryKind(%d)", int(k))
}

// Workload is a reproducible set of query inputs, shared verbatim across
// the three structures so their numbers are comparable.
type Workload struct {
	// EndpointSegs/EndpointPts drive Point1 and Point2: the query point is
	// an endpoint of an existing segment, as §5 specifies.
	EndpointSegs []seg.ID
	EndpointPts  []geom.Point
	OneStage     []geom.Point
	TwoStage     []geom.Point
	Windows      []geom.Rect
}

// WindowSide is the side of the §6 window queries: 0.01 percent of the
// total 16K x 16K area, i.e. a 164-pixel square ("160 by 160" in the
// paper's rounding).
const WindowSide = 164

// NewWorkload draws n queries of each flavor. The two-stage generator
// follows §6: first pick an occupied PMR quadtree block uniformly (by
// count, not by size), then a uniform point inside it; it therefore needs
// a built PMR quadtree for the same map.
func NewWorkload(m *tiger.Map, pmrTree *pmr.Tree, n int, seed int64) (*Workload, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &Workload{}
	for i := 0; i < n; i++ {
		j := rng.Intn(len(m.Segments))
		w.EndpointSegs = append(w.EndpointSegs, seg.ID(j))
		w.EndpointPts = append(w.EndpointPts, m.Segments[j].P1)
	}
	for i := 0; i < n; i++ {
		w.OneStage = append(w.OneStage, geom.Pt(
			int32(rng.Intn(geom.WorldSize)), int32(rng.Intn(geom.WorldSize))))
	}
	blocks, err := pmrTree.LeafBlocks()
	if err != nil {
		return nil, err
	}
	if len(blocks) == 0 {
		return nil, fmt.Errorf("harness: PMR quadtree has no occupied blocks")
	}
	for i := 0; i < n; i++ {
		b := blocks[rng.Intn(len(blocks))].Block()
		w.TwoStage = append(w.TwoStage, geom.Pt(
			b.Min.X+int32(rng.Intn(int(b.Width()+1))),
			b.Min.Y+int32(rng.Intn(int(b.Height()+1)))))
	}
	for i := 0; i < n; i++ {
		x := int32(rng.Intn(geom.WorldSize - WindowSide))
		y := int32(rng.Intn(geom.WorldSize - WindowSide))
		w.Windows = append(w.Windows, geom.RectOf(x, y, x+WindowSide-1, y+WindowSide-1))
	}
	return w, nil
}

// AvgMetrics is a per-query average of the three counters.
type AvgMetrics struct {
	Disk float64
	Seg  float64
	Node float64
}

// add accumulates a per-query delta.
func (a *AvgMetrics) add(m core.Metrics) {
	a.Disk += float64(m.DiskAccesses)
	a.Seg += float64(m.SegComps)
	a.Node += float64(m.NodeComps)
}

func (a *AvgMetrics) divide(n int) {
	a.Disk /= float64(n)
	a.Seg /= float64(n)
	a.Node /= float64(n)
}

// RunQueries executes the full workload against one structure and returns
// the average per-query metrics for each query kind. The buffer pools stay
// warm across queries, as in the paper's batched runs.
func RunQueries(ix core.Index, w *Workload) ([NumQueryKinds]AvgMetrics, error) {
	var out [NumQueryKinds]AvgMetrics
	sink := func(seg.ID, geom.Segment) bool { return true }

	for i := range w.EndpointSegs {
		m, err := core.Measure(ix, func() error {
			return core.IncidentAtObs(ix, w.EndpointPts[i], sink, nil)
		})
		if err != nil {
			return out, err
		}
		out[Point1].add(m)
	}
	for i := range w.EndpointSegs {
		m, err := core.Measure(ix, func() error {
			return core.OtherEndpointObs(ix, w.EndpointSegs[i], w.EndpointPts[i], sink, nil)
		})
		if err != nil {
			return out, err
		}
		out[Point2].add(m)
	}
	for _, batch := range []struct {
		pts  []geom.Point
		near QueryKind
		poly QueryKind
	}{
		{w.TwoStage, Nearest2Stage, Polygon2Stage},
		{w.OneStage, Nearest1Stage, Polygon1Stage},
	} {
		for _, p := range batch.pts {
			m, err := core.Measure(ix, func() error {
				_, err := core.FirstNearestObs(ix, p, nil)
				return err
			})
			if err != nil {
				return out, err
			}
			out[batch.near].add(m)
		}
		for _, p := range batch.pts {
			m, err := core.Measure(ix, func() error {
				_, err := core.EnclosingPolygonObs(ix, p, nil)
				return err
			})
			if err != nil {
				return out, err
			}
			out[batch.poly].add(m)
		}
	}
	for _, r := range w.Windows {
		m, err := core.Measure(ix, func() error {
			return ix.WindowObs(r, sink, nil)
		})
		if err != nil {
			return out, err
		}
		out[Range].add(m)
	}

	out[Point1].divide(len(w.EndpointSegs))
	out[Point2].divide(len(w.EndpointSegs))
	out[Nearest2Stage].divide(len(w.TwoStage))
	out[Polygon2Stage].divide(len(w.TwoStage))
	out[Nearest1Stage].divide(len(w.OneStage))
	out[Polygon1Stage].divide(len(w.OneStage))
	out[Range].divide(len(w.Windows))
	return out, nil
}

// ratio returns a/b guarding against division by zero.
func ratio(a, b float64) float64 {
	if b == 0 {
		if a == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return a / b
}
