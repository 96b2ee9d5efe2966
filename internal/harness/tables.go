package harness

import (
	"fmt"
	"io"

	"segdb/internal/pmr"
	"segdb/internal/tiger"
)

// Table1 reproduces the paper's Table 1: structure size, build disk
// accesses and build CPU time for every map and structure, followed by the
// ratio summary of §6 (storage premiums over the R*-tree and build-time
// ratios against the R+-tree).
func Table1(w io.Writer, maps []*tiger.Map, opts Options) error {
	fmt.Fprintf(w, "Table 1: Data structure building statistics\n")
	fmt.Fprintf(w, "(cpu: seconds, median [min-max] of %d builds)\n", TimedBuilds)
	fmt.Fprintf(w, "%-14s %6s | %8s %8s %8s | %8s %8s %8s | %16s %16s %16s\n",
		"map name", "segs",
		"R* KB", "R+ KB", "PMR KB",
		"R* dacc", "R+ dacc", "PMR dacc",
		"R* cpu", "R+ cpu", "PMR cpu")

	type row struct{ res map[Structure]BuildResult }
	var rows []row
	for _, m := range maps {
		r := row{res: make(map[Structure]BuildResult)}
		for _, s := range Core() {
			_, br, err := BuildTimed(s, m, opts)
			if err != nil {
				return err
			}
			r.res[s] = br
		}
		rows = append(rows, r)
		fmt.Fprintf(w, "%-14s %6d | %8d %8d %8d | %8d %8d %8d | %16s %16s %16s\n",
			m.Spec.Name, len(m.Segments),
			r.res[RStar].SizeBytes/1024, r.res[RPlus].SizeBytes/1024, r.res[PMR].SizeBytes/1024,
			r.res[RStar].DiskAccesses, r.res[RPlus].DiskAccesses, r.res[PMR].DiskAccesses,
			r.res[RStar].CPUCell(), r.res[RPlus].CPUCell(), r.res[PMR].CPUCell())
	}

	fmt.Fprintf(w, "\nRatios (paper: PMR 13-43%% and R+ 26-43%% more storage than R*;\n")
	fmt.Fprintf(w, "        build time R+ fastest, PMR 1.5-1.7x, R* 7.8-9.1x):\n")
	fmt.Fprintf(w, "%-14s | %-11s %-11s | %-11s %-11s | %-9s %-9s | %-10s\n",
		"map name", "PMR/R* size", "R+/R* size", "PMR/R+ cpu", "R*/R+ cpu", "R* occ", "R+ occ", "R*/R+ bbox")
	for i, m := range maps {
		r := rows[i]
		fmt.Fprintf(w, "%-14s | %10.2f%% %10.2f%% | %11.2f %11.2f | %9.1f %9.1f | %10.2f\n",
			m.Spec.Name,
			100*(ratio(float64(r.res[PMR].SizeBytes), float64(r.res[RStar].SizeBytes))-1),
			100*(ratio(float64(r.res[RPlus].SizeBytes), float64(r.res[RStar].SizeBytes))-1),
			ratio(r.res[PMR].CPU.Seconds(), r.res[RPlus].CPU.Seconds()),
			ratio(r.res[RStar].CPU.Seconds(), r.res[RPlus].CPU.Seconds()),
			r.res[RStar].AvgLeafOccupancy,
			r.res[RPlus].AvgLeafOccupancy,
			ratio(float64(r.res[RStar].BBoxComps), float64(r.res[RPlus].BBoxComps)))
	}
	return nil
}

// Figure6 reproduces the paper's Figure 6: build disk accesses for the
// PMR quadtree and the R+-tree as the page size and the buffer pool size
// vary. The paper's claims: accesses fall as either grows, and the PMR
// quadtree needs fewer accesses than the R+-tree at equal configurations.
func Figure6(w io.Writer, m *tiger.Map, pageSizes, poolSizes []int) error {
	fmt.Fprintf(w, "Figure 6: build disk accesses by page and buffer size (%s)\n", m.Spec.Name)
	fmt.Fprintf(w, "%-10s %-10s | %12s %12s\n", "page size", "buffers", "R+", "PMR")
	for _, ps := range pageSizes {
		for _, bs := range poolSizes {
			opts := DefaultOptions()
			opts.PageSize = ps
			opts.PoolPages = bs
			_, rp, err := Build(RPlus, m, opts)
			if err != nil {
				return err
			}
			_, pm, err := Build(PMR, m, opts)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-10d %-10d | %12d %12d\n", ps, bs, rp.DiskAccesses, pm.DiskAccesses)
		}
	}
	return nil
}

// Table2 reproduces the paper's Table 2 for one county (Charles in the
// paper): per-query average disk accesses, segment comparisons, and
// bounding box / bucket computations for the three structures.
func Table2(w io.Writer, m *tiger.Map, queries int, opts Options) error {
	results, err := StudyMap(m, queries, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Table 2: per-query averages for %s county (%d queries each)\n",
		m.Spec.Name, queries)
	fmt.Fprintf(w, "%-17s %-18s | %10s %10s %10s\n", "query", "metric", "PMR", "R+", "R*")
	for k := QueryKind(0); k < NumQueryKinds; k++ {
		fmt.Fprintf(w, "%-17s %-18s | %10.2f %10.2f %10.2f\n", k, "disk accesses",
			results[PMR][k].Disk, results[RPlus][k].Disk, results[RStar][k].Disk)
		fmt.Fprintf(w, "%-17s %-18s | %10.2f %10.2f %10.2f\n", "", "segment comps",
			results[PMR][k].Seg, results[RPlus][k].Seg, results[RStar][k].Seg)
		fmt.Fprintf(w, "%-17s %-18s | %10.2f %10.2f %10.2f\n", "", "bbox/bucket comps",
			results[PMR][k].Node, results[RPlus][k].Node, results[RStar][k].Node)
	}
	return nil
}

// StudyMap builds the three structures over one map and runs the shared
// workload against each, returning per-structure per-query averages.
func StudyMap(m *tiger.Map, queries int, opts Options) (map[Structure][NumQueryKinds]AvgMetrics, error) {
	out := make(map[Structure][NumQueryKinds]AvgMetrics)
	// Build the PMR first: its blocks drive the two-stage point generator
	// used for every structure, exactly as in §6.
	pmrIx, _, err := Build(PMR, m, opts)
	if err != nil {
		return nil, err
	}
	wl, err := NewWorkload(m, pmrIx.(*pmr.Tree), queries, m.Spec.Seed+777)
	if err != nil {
		return nil, err
	}
	res, err := RunQueries(pmrIx, wl)
	if err != nil {
		return nil, err
	}
	out[PMR] = res
	for _, s := range []Structure{RPlus, RStar} {
		ix, _, err := Build(s, m, opts)
		if err != nil {
			return nil, err
		}
		res, err := RunQueries(ix, wl)
		if err != nil {
			return nil, err
		}
		out[s] = res
	}
	return out, nil
}
