package harness

import (
	"bytes"
	"strings"
	"testing"

	"segdb/internal/kinds"
	"segdb/internal/pmr"
	"segdb/internal/tiger"
)

// smallSpecs are shrunken counties for fast tests: same archetypes, ~2k
// segments.
func smallSpecs() []tiger.Spec {
	return []tiger.Spec{
		{Name: "mini-urban", Kind: tiger.Urban, Seed: 11, Lattice: 26, SubdivMin: 1, SubdivMax: 2, DeleteFrac: 0.10},
		{Name: "mini-suburban", Kind: tiger.Suburban, Seed: 12, Lattice: 16, SubdivMin: 3, SubdivMax: 5, DeleteFrac: 0.12},
		{Name: "mini-rural", Kind: tiger.Rural, Seed: 13, Lattice: 7, SubdivMin: 20, SubdivMax: 28, DeleteFrac: 0.2},
	}
}

func smallMaps(t *testing.T) []*tiger.Map {
	t.Helper()
	var out []*tiger.Map
	for _, spec := range smallSpecs() {
		m, err := tiger.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m)
	}
	return out
}

// allKinds lists the six kinds in the order the golden file prints them.
var allKinds = []kinds.Kind{kinds.RStar, kinds.RPlus, kinds.PMR, kinds.KDB, kinds.UniformGrid, kinds.RTree}

func TestBuildAllStructures(t *testing.T) {
	m := smallMaps(t)[0]
	for _, s := range allKinds {
		ix, br, err := Build(s, m, kinds.DefaultConfig())
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if ix.Name() == "" || br.Segments != len(m.Segments) {
			t.Fatalf("%v: bad result %+v", s, br)
		}
		if br.SizeBytes <= 0 || br.DiskAccesses == 0 {
			t.Fatalf("%v: no disk activity recorded: %+v", s, br)
		}
	}
}

func TestBuildStatsShapeMatchesPaper(t *testing.T) {
	// Storage: R* most compact; R+ and PMR carry a duplication premium
	// (Table 1: R+ 26-43% and PMR 13-43% larger than R*).
	m := smallMaps(t)[1]
	opts := kinds.DefaultConfig()
	res := map[kinds.Kind]BuildResult{}
	for _, s := range Core() {
		_, br, err := Build(s, m, opts)
		if err != nil {
			t.Fatal(err)
		}
		res[s] = br
	}
	if res[kinds.RPlus].SizeBytes <= res[kinds.RStar].SizeBytes {
		t.Errorf("R+ size %d should exceed R* size %d", res[kinds.RPlus].SizeBytes, res[kinds.RStar].SizeBytes)
	}
	// The PMR premium over R* depends on the q-edge duplication factor of
	// the data (see EXPERIMENTS.md); what must hold structurally is that
	// its 8-byte entries keep it well under the R+-tree.
	if res[kinds.PMR].SizeBytes >= res[kinds.RPlus].SizeBytes {
		t.Errorf("PMR size %d should be below R+ size %d", res[kinds.PMR].SizeBytes, res[kinds.RPlus].SizeBytes)
	}
	// Build cost: R* dearest by a wide margin (overlap-minimizing
	// ChooseSubtree and forced reinsertion). Asserted on the build's
	// bounding box computations, which repeat exactly; the wall-clock
	// ratio is a number `experiments table1` reports, not a test.
	if res[kinds.RStar].BBoxComps < 3*res[kinds.RPlus].BBoxComps {
		t.Errorf("R* build (%d bbox computations) should cost over 3x the R+ build (%d)", res[kinds.RStar].BBoxComps, res[kinds.RPlus].BBoxComps)
	}
}

func TestWorkloadDeterministic(t *testing.T) {
	m := smallMaps(t)[0]
	ix, _, err := Build(kinds.PMR, m, kinds.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pt := ix.(*pmr.Tree)
	w1, err := NewWorkload(m, pt, 50, 99)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := NewWorkload(m, pt, 50, 99)
	if err != nil {
		t.Fatal(err)
	}
	for i := range w1.OneStage {
		if w1.OneStage[i] != w2.OneStage[i] || w1.TwoStage[i] != w2.TwoStage[i] {
			t.Fatal("workload not deterministic")
		}
	}
	if len(w1.Windows) != 50 || len(w1.EndpointSegs) != 50 {
		t.Fatal("wrong workload sizes")
	}
	// Windows are the paper's 0.01% of the area.
	for _, r := range w1.Windows {
		if r.Width()+1 != WindowSide || r.Height()+1 != WindowSide {
			t.Fatalf("window %v has wrong size", r)
		}
	}
}

func TestRunQueriesProducesSaneMetrics(t *testing.T) {
	m := smallMaps(t)[1]
	res, err := StudyMap(m, 30, kinds.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range Core() {
		for k := QueryKind(0); k < NumQueryKinds; k++ {
			a := res[s][k]
			if a.Seg <= 0 {
				t.Errorf("%v/%v: zero segment comps", s, k)
			}
			if a.Node <= 0 {
				t.Errorf("%v/%v: zero node comps", s, k)
			}
		}
	}
	// Structural claims from §6 that hold robustly:
	// R-tree bbox comps dwarf PMR bucket comps — point location in the
	// linear quadtree is a single bucket computation (Table 2 shows 1.00
	// vs ~105-150), and the gap stays wide for the other queries.
	for _, k := range []QueryKind{Point1, Point2} {
		if res[kinds.PMR][k].Node > 2 {
			t.Errorf("%v: PMR point location should cost ~1 bucket comp, got %.2f", k, res[kinds.PMR][k].Node)
		}
		if res[kinds.RStar][k].Node < 10*res[kinds.PMR][k].Node {
			t.Errorf("%v: R* bbox comps %.1f should dwarf PMR bucket comps %.1f",
				k, res[kinds.RStar][k].Node, res[kinds.PMR][k].Node)
		}
	}
	for k := QueryKind(0); k < NumQueryKinds; k++ {
		if res[kinds.RStar][k].Node < 2*res[kinds.PMR][k].Node {
			t.Errorf("%v: R* bbox comps %.1f should exceed PMR bucket comps %.1f",
				k, res[kinds.RStar][k].Node, res[kinds.PMR][k].Node)
		}
	}
	// The polygon queries are far costlier than the point queries.
	if res[kinds.PMR][Polygon2Stage].Disk < 2*res[kinds.PMR][Point1].Disk {
		t.Errorf("polygon query should cost much more than a point query")
	}
}

func TestTable1AndFigure6Print(t *testing.T) {
	maps := smallMaps(t)[:2]
	var buf bytes.Buffer
	if err := Table1(&buf, maps, kinds.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table 1", "mini-urban", "mini-suburban", "PMR/R*"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 output missing %q", want)
		}
	}
	buf.Reset()
	if err := Figure6(&buf, maps[0], []int{512, 1024}, []int{8, 16}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 6") {
		t.Error("Figure6 output malformed")
	}
}

func TestFigure6Monotonicity(t *testing.T) {
	// The paper's Figure 6 claims: disk accesses decrease as the page
	// size and the buffer pool grow, for both structures.
	m := smallMaps(t)[1]
	get := func(s kinds.Kind, page, pool int) uint64 {
		opts := kinds.DefaultConfig()
		opts.PageSize = page
		opts.PoolPages = pool
		_, br, err := Build(s, m, opts)
		if err != nil {
			t.Fatal(err)
		}
		return br.DiskAccesses
	}
	for _, s := range []kinds.Kind{kinds.RPlus, kinds.PMR} {
		smallPool := get(s, 1024, 4)
		bigPool := get(s, 1024, 64)
		if bigPool >= smallPool {
			t.Errorf("%v: %d accesses with 64 buffers, %d with 4 — should fall", s, bigPool, smallPool)
		}
		smallPage := get(s, 512, 16)
		bigPage := get(s, 4096, 16)
		if bigPage >= smallPage {
			t.Errorf("%v: %d accesses at 4K pages, %d at 512 — should fall", s, bigPage, smallPage)
		}
	}
}

func TestTable2AndFiguresPrint(t *testing.T) {
	m := smallMaps(t)[2]
	var buf bytes.Buffer
	if err := Table2(&buf, m, 20, kinds.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "disk accesses") {
		t.Error("Table2 output malformed")
	}
	fd, err := Figures(smallMaps(t), 15, kinds.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	PrintFigures(&buf, fd)
	for _, want := range []string{"Figure 7", "Figure 8", "Figure 9"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("figures output missing %q", want)
		}
	}
	// Ranges are well-formed.
	for k := QueryKind(0); k < NumQueryKinds; k++ {
		r := fd.DiskRPlus[k]
		if !(r.Min <= r.Avg && r.Avg <= r.Max) {
			t.Errorf("%v: malformed range %+v", k, r)
		}
	}
}

func TestAblationsPrint(t *testing.T) {
	m := smallMaps(t)[1]
	var buf bytes.Buffer
	if err := Ablations(&buf, m, 10); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Ablation 1", "Ablation 2", "Ablation 3", "Ablation 4", "Ablation 5"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablations missing %q", want)
		}
	}
}

func TestQueryKindStrings(t *testing.T) {
	seen := map[string]bool{}
	for k := QueryKind(0); k < NumQueryKinds; k++ {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("bad or duplicate name %q", s)
		}
		seen[s] = true
	}
}
