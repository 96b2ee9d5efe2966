package harness

import (
	"fmt"
	"io"

	"segdb/internal/kinds"
	"segdb/internal/pmr"
	"segdb/internal/tiger"
)

// Ablations runs the design-choice studies discussed in the paper's prose
// (§3, §7) that are not in a numbered table or figure:
//
//  1. the PMR splitting-threshold sweep (storage falls, per-query work
//     rises; threshold ~64 equalizes bucket and R-tree page occupancy);
//  2. the R*-tree with forced reinsertion disabled (build cost vs quality);
//  3. the pure k-d-B-tree vs the hybrid R+-tree (leaf MBRs buy pruning);
//  4. the PMR "3-tuple" variant with per-q-edge bounding rectangles;
//  5. the uniform grid vs the PMR quadtree on skewed data (why the study
//     uses the adaptive decomposition);
//  6. the classic Guttman R-tree vs the R*-tree (the baseline the
//     R*-tree improves upon — "a variant of the R-tree [9]").
//
// The "build cpu" columns are BuildTimed medians with their spread.
func Ablations(w io.Writer, m *tiger.Map, queries int) error {
	cfg := kinds.DefaultConfig()

	fmt.Fprintf(w, "Ablation 1: PMR splitting threshold sweep (%s)\n", m.Spec.Name)
	fmt.Fprintf(w, "%-10s | %10s %12s %14s %14s\n", "threshold", "size KB", "avg bucket", "nearest dacc", "nearest segc")
	pmrIx, _, err := Build(kinds.PMR, m, cfg)
	if err != nil {
		return err
	}
	wl, err := NewWorkload(m, pmrIx.(*pmr.Tree), queries, m.Spec.Seed+888)
	if err != nil {
		return err
	}
	for _, th := range []int{2, 4, 8, 16, 32, 64} {
		c := cfg
		c.PMRThreshold = th
		ix, br, err := Build(kinds.PMR, m, c)
		if err != nil {
			return err
		}
		res, err := RunQueries(ix, wl)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-10d | %10d %12.1f %14.2f %14.2f\n",
			th, br.SizeBytes/1024, br.AvgLeafOccupancy,
			res[Nearest2Stage].Disk, res[Nearest2Stage].Seg)
	}

	fmt.Fprintf(w, "\nAblation 2: R*-tree forced reinsertion (%s)\n", m.Spec.Name)
	fmt.Fprintf(w, "%-12s | %10s %16s %12s %14s\n", "reinsertion", "size KB", "build cpu", "build dacc", "nearest dacc")
	for _, disable := range []bool{false, true} {
		c := cfg
		c.DisableReinsert = disable
		ix, br, err := BuildTimed(kinds.RStar, m, c)
		if err != nil {
			return err
		}
		res, err := RunQueries(ix, wl)
		if err != nil {
			return err
		}
		label := "on (30%)"
		if disable {
			label = "off"
		}
		fmt.Fprintf(w, "%-12s | %10d %16s %12d %14.2f\n",
			label, br.SizeBytes/1024, br.CPUCell(), br.DiskAccesses, res[Nearest2Stage].Disk)
	}

	fmt.Fprintf(w, "\nAblation 3: hybrid R+-tree vs pure k-d-B-tree (%s)\n", m.Spec.Name)
	fmt.Fprintf(w, "%-10s | %10s %16s %14s %14s\n", "variant", "size KB", "build cpu", "point1 segc", "point1 dacc")
	for _, k := range []kinds.Kind{kinds.RPlus, kinds.KDB} {
		ix, br, err := BuildTimed(k, m, cfg)
		if err != nil {
			return err
		}
		res, err := RunQueries(ix, wl)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-10s | %10d %16s %14.2f %14.2f\n",
			k.Label(), br.SizeBytes/1024, br.CPUCell(), res[Point1].Seg, res[Point1].Disk)
	}

	fmt.Fprintf(w, "\nAblation 4: PMR with per-q-edge bounding rectangles (§6 3-tuples) (%s)\n", m.Spec.Name)
	fmt.Fprintf(w, "%-10s | %10s %14s %14s %14s\n", "variant", "size KB", "point1 segc", "range segc", "range dacc")
	for _, storeMBR := range []bool{false, true} {
		c := cfg
		c.PMRStoreMBR = storeMBR
		ix, br, err := Build(kinds.PMR, m, c)
		if err != nil {
			return err
		}
		res, err := RunQueries(ix, wl)
		if err != nil {
			return err
		}
		label := "2-tuple"
		if storeMBR {
			label = "3-tuple"
		}
		fmt.Fprintf(w, "%-10s | %10d %14.2f %14.2f %14.2f\n",
			label, br.SizeBytes/1024, res[Point1].Seg, res[Range].Seg, res[Range].Disk)
	}

	fmt.Fprintf(w, "\nAblation 5: uniform grid vs PMR quadtree (%s)\n", m.Spec.Name)
	fmt.Fprintf(w, "%-10s | %10s %14s %14s\n", "structure", "size KB", "point1 dacc", "nearest segc")
	for _, k := range []kinds.Kind{kinds.UniformGrid, kinds.PMR} {
		ix, br, err := Build(k, m, cfg)
		if err != nil {
			return err
		}
		res, err := RunQueries(ix, wl)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-10s | %10d %14.2f %14.2f\n",
			k.Label(), br.SizeBytes/1024, res[Point1].Disk, res[Nearest2Stage].Seg)
	}
	fmt.Fprintf(w, "\nAblation 6: classic R-tree vs R*-tree (%s)\n", m.Spec.Name)
	fmt.Fprintf(w, "%-10s | %10s %16s %14s %14s\n", "variant", "size KB", "build cpu", "range dacc", "range bbox")
	for _, k := range []kinds.Kind{kinds.RTree, kinds.RStar} {
		ix, br, err := BuildTimed(k, m, cfg)
		if err != nil {
			return err
		}
		res, err := RunQueries(ix, wl)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-10s | %10d %16s %14.2f %14.2f\n",
			k.Label(), br.SizeBytes/1024, br.CPUCell(), res[Range].Disk, res[Range].Node)
	}
	return nil
}
