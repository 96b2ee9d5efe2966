package harness

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"segdb/internal/kinds"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/harness_counts.golden")

// cpuCell matches BuildResult.CPUCell's "median [min-max]" seconds, and
// decimal any number.
var (
	cpuCell = regexp.MustCompile(`\d+\.\d+ \[\d+\.\d+-\d+\.\d+\]`)
	decimal = regexp.MustCompile(`\d+\.\d+`)
)

// maskTimes blanks every wall-clock cell of the harness's printed
// tables: the CPUCell columns, and the two cpu ratios of Table 1's
// ratio summary (the third "|" group of its five-group rows).
func maskTimes(s string) string {
	s = cpuCell.ReplaceAllString(s, "<cpu>")
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		if parts := strings.Split(l, " | "); len(parts) == 5 {
			parts[2] = decimal.ReplaceAllString(parts[2], "<t>")
			lines[i] = strings.Join(parts, " | ")
		}
	}
	return strings.Join(lines, "\n")
}

// TestHarnessCountsGolden pins every deterministic number the paper
// harness prints — Table 1's sizes, disk accesses, occupancies and bbox
// ratios, Figure 6, Table 2, Figures 7–9 and Ablations 1–6, with the
// time columns masked — plus the per-build statistics of all six kinds,
// one at a time and bulk-loaded, over the small maps. Regenerate with
// -update only for a change that means to move a count.
func TestHarnessCountsGolden(t *testing.T) {
	maps := smallMaps(t)
	var out bytes.Buffer

	fmt.Fprintln(&out, "== builds")
	for _, m := range maps {
		for _, k := range allKinds {
			for _, bulk := range []bool{false, true} {
				build := Build
				if bulk {
					build = BuildBulk
				}
				_, br, err := build(k, m, kinds.DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&out, "%s %s bulk=%v: segs %d size %d dacc %d bbox %d occ %.4f\n",
					m.Spec.Name, k.Label(), bulk, br.Segments, br.SizeBytes, br.DiskAccesses, br.BBoxComps, br.AvgLeafOccupancy)
			}
		}
	}

	var buf bytes.Buffer
	fmt.Fprintln(&buf, "== table1")
	if err := Table1(&buf, maps, kinds.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(&buf, "== figure6")
	if err := Figure6(&buf, maps[1], []int{512, 1024}, []int{8, 16}); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(&buf, "== table2")
	if err := Table2(&buf, maps[2], 20, kinds.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(&buf, "== figures789")
	fd, err := Figures(maps, 15, kinds.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	PrintFigures(&buf, fd)
	fmt.Fprintln(&buf, "== ablations")
	if err := Ablations(&buf, maps[1], 10); err != nil {
		t.Fatal(err)
	}
	out.WriteString(maskTimes(buf.String()))

	const path = "testdata/harness_counts.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, exp := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	section := ""
	for i := 0; i < len(got) && i < len(exp); i++ {
		if strings.HasPrefix(got[i], "== ") {
			section = got[i]
		}
		if got[i] != exp[i] {
			t.Fatalf("%s moved at line %d (%s):\n got  %s\n want %s", path, i+1, section, got[i], exp[i])
		}
	}
	if len(got) != len(exp) {
		t.Fatalf("%s moved: %d lines, golden has %d", path, len(got), len(exp))
	}
}
