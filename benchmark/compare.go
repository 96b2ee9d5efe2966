package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// Verdicts of -compare, judged under the bounds of the end-to-end table.
const (
	verdictImproved   = "improved"
	verdictUnchanged  = "unchanged"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// verdict judges b against the base a. worse is the share of a by which
// b is worse in the metric's own direction. A move beyond the bound is a
// regression or an improvement; within it, the metric is unchanged
// unless either run's own spread was already wider than the bound, in
// which case the runs cannot tell.
func verdict(d metricDef, a, b metricOut) (ratio float64, v string) {
	if a.Value == 0 {
		if b.Value == 0 {
			return 1, verdictUnchanged
		}
		return 0, verdictUnresolved
	}
	ratio = b.Value / a.Value
	worse := ratio - 1
	if d.Better == higher {
		worse = 1 - ratio
	}
	switch {
	case worse > *d.Bound:
		return ratio, verdictRegressed
	case worse < -*d.Bound:
		return ratio, verdictImproved
	case a.Spread > *d.Bound || b.Spread > *d.Bound:
		return ratio, verdictUnresolved
	}
	return ratio, verdictUnchanged
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareReports prints one row per (workload, end-to-end metric) and
// fails if any row regressed.
func compareReports(pathA, pathB string) error {
	a, err := readReport(pathA)
	if err != nil {
		return err
	}
	b, err := readReport(pathB)
	if err != nil {
		return err
	}
	if a.Env.NumCPU != b.Env.NumCPU || a.Env.GOMAXPROCS != b.Env.GOMAXPROCS || a.Env.Seconds != b.Env.Seconds || a.Env.Quick != b.Env.Quick {
		fmt.Printf("WARNING: the runs differ in machine or settings (%+v vs %+v); timings are not comparable\n", a.Env, b.Env)
	}
	fmt.Printf("base a = %s (commit %s, seed %d)   b = %s (commit %s, seed %d)\n",
		pathA, a.Env.Commit, a.Env.Seed, pathB, b.Env.Commit, b.Env.Seed)
	fmt.Printf("%-15s %-18s %16s %16s %9s %6s  %s\n", "workload", "metric", "a (median)", "b (median)", "b/a", "bound", "verdict")
	regressed := 0
	for _, wd := range workloadDefs {
		wa, wb := a.Workloads[wd.Name], b.Workloads[wd.Name]
		if wa == nil || wb == nil {
			continue
		}
		for _, d := range endToEnd {
			ma, okA := wa.EndToEnd[d.Name]
			mb, okB := wb.EndToEnd[d.Name]
			if !okA || !okB {
				continue
			}
			ratio, v := verdict(d, ma, mb)
			if v == verdictRegressed {
				regressed++
			}
			fmt.Printf("%-15s %-18s %16.4f %16.4f %9.4f %6.2f  %s\n", wd.Name, d.Name, ma.Value, mb.Value, ratio, *d.Bound, v)
		}
		if wb.Failed > wa.Failed {
			regressed++
			fmt.Printf("%-15s %-18s %16d %16d %9s %6s  %s\n", wd.Name, "failed", wa.Failed, wb.Failed, "", "", verdictRegressed)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d regressed", regressed)
	}
	return nil
}
