package harness

import (
	"fmt"
	"io"
	"math"

	"segdb/internal/kinds"
	"segdb/internal/tiger"
)

// NormalizedRange is the paper's figure primitive: the minimum, average
// and maximum over the six maps of a per-map normalized value.
type NormalizedRange struct {
	Min, Avg, Max float64
}

func rangeOf(vals []float64) NormalizedRange {
	r := NormalizedRange{Min: math.Inf(1), Max: math.Inf(-1)}
	for _, v := range vals {
		r.Min = math.Min(r.Min, v)
		r.Max = math.Max(r.Max, v)
		r.Avg += v
	}
	r.Avg /= float64(len(vals))
	return r
}

// FigureData holds the normalized ranges of Figures 7-9.
type FigureData struct {
	// Figure 7: R+ bounding box computations normalized against R*
	// (the PMR quadtree's bucket computations are about two orders of
	// magnitude smaller, so the paper excludes it from this figure; the
	// separate PMRNodeVsRStar field records that gap).
	BBoxRPlusVsRStar [NumQueryKinds]NormalizedRange
	PMRNodeVsRStar   [NumQueryKinds]NormalizedRange
	// Figure 8: disk accesses normalized against PMR (PMR = 1).
	DiskRPlus [NumQueryKinds]NormalizedRange
	DiskRStar [NumQueryKinds]NormalizedRange
	// Figure 9: segment comparisons normalized against PMR (PMR = 1).
	SegRPlus [NumQueryKinds]NormalizedRange
	SegRStar [NumQueryKinds]NormalizedRange
}

// Figures runs the full §6 query study — every map, structure and query
// kind — and reduces it to the normalized ranges plotted in Figures 7-9.
func Figures(maps []*tiger.Map, queries int, cfg kinds.Config) (*FigureData, error) {
	perMap := make([]map[kinds.Kind][NumQueryKinds]AvgMetrics, len(maps))
	for i, m := range maps {
		res, err := StudyMap(m, queries, cfg)
		if err != nil {
			return nil, err
		}
		perMap[i] = res
	}
	fd := &FigureData{}
	for k := QueryKind(0); k < NumQueryKinds; k++ {
		var bbox, pmrNode, diskRP, diskRS, segRP, segRS []float64
		for _, res := range perMap {
			bbox = append(bbox, ratio(res[kinds.RPlus][k].Node, res[kinds.RStar][k].Node))
			pmrNode = append(pmrNode, ratio(res[kinds.PMR][k].Node, res[kinds.RStar][k].Node))
			diskRP = append(diskRP, ratio(res[kinds.RPlus][k].Disk, res[kinds.PMR][k].Disk))
			diskRS = append(diskRS, ratio(res[kinds.RStar][k].Disk, res[kinds.PMR][k].Disk))
			segRP = append(segRP, ratio(res[kinds.RPlus][k].Seg, res[kinds.PMR][k].Seg))
			segRS = append(segRS, ratio(res[kinds.RStar][k].Seg, res[kinds.PMR][k].Seg))
		}
		fd.BBoxRPlusVsRStar[k] = rangeOf(bbox)
		fd.PMRNodeVsRStar[k] = rangeOf(pmrNode)
		fd.DiskRPlus[k] = rangeOf(diskRP)
		fd.DiskRStar[k] = rangeOf(diskRS)
		fd.SegRPlus[k] = rangeOf(segRP)
		fd.SegRStar[k] = rangeOf(segRS)
	}
	return fd, nil
}

// PrintFigures renders the three figures as text tables.
func PrintFigures(w io.Writer, fd *FigureData) {
	printRange := func(title string, get func(k QueryKind) NormalizedRange) {
		fmt.Fprintf(w, "%s\n", title)
		fmt.Fprintf(w, "%-17s | %8s %8s %8s\n", "query", "min", "avg", "max")
		for k := QueryKind(0); k < NumQueryKinds; k++ {
			r := get(k)
			fmt.Fprintf(w, "%-17s | %8.3f %8.3f %8.3f\n", k, r.Min, r.Avg, r.Max)
		}
		fmt.Fprintln(w)
	}
	printRange("Figure 7: bounding box computations, R+ normalized to R* (paper: < 1)",
		func(k QueryKind) NormalizedRange { return fd.BBoxRPlusVsRStar[k] })
	printRange("Figure 7 aside: PMR bucket comps vs R* bbox comps (paper: ~2 orders of magnitude lower)",
		func(k QueryKind) NormalizedRange { return fd.PMRNodeVsRStar[k] })
	printRange("Figure 8: disk accesses normalized to PMR=1 — R+",
		func(k QueryKind) NormalizedRange { return fd.DiskRPlus[k] })
	printRange("Figure 8: disk accesses normalized to PMR=1 — R*",
		func(k QueryKind) NormalizedRange { return fd.DiskRStar[k] })
	printRange("Figure 9: segment comparisons normalized to PMR=1 — R+",
		func(k QueryKind) NormalizedRange { return fd.SegRPlus[k] })
	printRange("Figure 9: segment comparisons normalized to PMR=1 — R*",
		func(k QueryKind) NormalizedRange { return fd.SegRStar[k] })
}
