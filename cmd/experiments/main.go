// Command experiments regenerates every table and figure of Hoel & Samet
// (SIGMOD 1992) on the six synthetic counties.
//
// Usage:
//
//	experiments [-queries N] [-county NAME] table1|figure6|table2|figures789|ablations|faces|all
//
// With no argument it prints the available experiments. The full run
// ("all" with -queries 1000) matches the paper's batch sizes and takes a
// few minutes; EXPERIMENTS.md records a complete transcript.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"segdb/internal/harness"
	"segdb/internal/kinds"
	"segdb/internal/tiger"
)

func main() {
	queries := flag.Int("queries", 1000, "queries per query type (the paper uses 1000)")
	county := flag.String("county", "Charles", "county for single-map experiments (table2, ablations)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: experiments [flags] table1|figure6|table2|figures789|ablations|faces|all\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}

	if err := run(flag.Arg(0), *county, *queries); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(what, county string, queries int) error {
	cfg := kinds.DefaultConfig()
	out := os.Stdout

	needMaps := func() ([]*tiger.Map, error) {
		fmt.Fprintf(out, "generating the six synthetic counties...\n")
		return harness.GenerateAll()
	}
	needOne := func() (*tiger.Map, error) {
		spec, ok := tiger.CountyByName(county)
		if !ok {
			return nil, fmt.Errorf("unknown county %q", county)
		}
		return tiger.Generate(spec)
	}

	start := time.Now()
	defer func() { fmt.Fprintf(out, "\n[%s done in %v]\n", what, time.Since(start).Round(time.Millisecond)) }()

	switch what {
	case "table1":
		maps, err := needMaps()
		if err != nil {
			return err
		}
		return harness.Table1(out, maps, cfg)

	case "figure6":
		m, err := needOne()
		if err != nil {
			return err
		}
		return harness.Figure6(out, m, []int{512, 1024, 2048, 4096}, []int{8, 16, 32, 64})

	case "table2":
		m, err := needOne()
		if err != nil {
			return err
		}
		return harness.Table2(out, m, queries, cfg)

	case "figures789":
		maps, err := needMaps()
		if err != nil {
			return err
		}
		fd, err := harness.Figures(maps, queries, cfg)
		if err != nil {
			return err
		}
		harness.PrintFigures(out, fd)
		return nil

	case "ablations":
		m, err := needOne()
		if err != nil {
			return err
		}
		return harness.Ablations(out, m, queries)

	case "faces":
		maps, err := needMaps()
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "Polygon (map face) statistics — §6 reports avg 19 for Baltimore, 132 for Charles\n")
		fmt.Fprintf(out, "%-14s %-9s | %8s %8s %8s %8s\n", "county", "class", "segs", "faces", "avg", "max")
		for _, m := range maps {
			st, err := tiger.Faces(m)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "%-14s %-9s | %8d %8d %8.1f %8d\n",
				m.Spec.Name, m.Spec.Kind, len(m.Segments), st.Faces, st.AvgSize, st.MaxSize)
		}
		return nil

	case "all":
		for _, sub := range []string{"faces", "table1", "figure6", "table2", "figures789", "ablations"} {
			fmt.Fprintf(out, "\n===== %s =====\n", sub)
			if err := run(sub, county, queries); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("unknown experiment %q", what)
}
