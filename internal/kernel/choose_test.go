package kernel

import (
	"math/rand"
	"testing"

	"segdb/internal/geom"
)

// checkChoose asserts the exported kernel and the scalar reference pick
// the same candidate and report the same overlap enlargement for every
// candidate.
func checkChoose(t *testing.T, label string, xmin, ymin, xmax, ymax []int32, r geom.Rect) {
	t.Helper()
	n := len(xmin)
	got, want := make([]int64, n), make([]int64, n)
	gi := ChooseSubtreeOverlap(xmin, ymin, xmax, ymax, r, got)
	wi := RefChooseSubtreeOverlap(xmin, ymin, xmax, ymax, r, want)
	if gi != wi {
		t.Fatalf("%s n=%d r=%v: kernel chose %d, reference %d", label, n, r, gi, wi)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s n=%d r=%v candidate %d: Δoverlap %d, reference %d", label, n, r, i, got[i], want[i])
		}
	}
}

// lanesOf spreads rectangles into coordinate lanes.
func lanesOf(rects []geom.Rect) (xmin, ymin, xmax, ymax []int32) {
	for _, r := range rects {
		xmin = append(xmin, r.Min.X)
		ymin = append(ymin, r.Min.Y)
		xmax = append(xmax, r.Max.X)
		ymax = append(ymax, r.Max.Y)
	}
	return
}

// The overlap-enlargement kernel must agree with the scalar reference
// on the chosen index and on every candidate's Δoverlap, for every node
// width the page formats produce (M = 2…51 classic, past LaneWidth for
// the compressed levels) and for r inside, outside and straddling the
// node's rectangles.
func TestChooseSubtreeOverlapMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 600; trial++ {
		n := 2 + trial%50 // 2…51
		if trial%97 == 0 {
			n = 83 + rng.Intn(43) // compressed-page fanouts, beyond LaneWidth
		}
		xmin, ymin, xmax, ymax := randLanes(rng, n)
		r := randRect(rng)
		switch trial % 5 {
		case 1: // r inside one candidate
			i := rng.Intn(n)
			r = geom.Rect{Min: geom.Point{X: xmin[i], Y: ymin[i]}, Max: geom.Point{X: xmin[i], Y: ymin[i]}}
		case 2: // r a horizontal segment's zero-area box
			r.Max.Y = r.Min.Y
		case 3: // r a vertical segment's zero-area box
			r.Max.X = r.Min.X
		}
		checkChoose(t, "random", xmin, ymin, xmax, ymax, r)
	}
}

// Adversarial node contents: every tie-break level must resolve to the
// reference's choice, and zero-area rectangles must not perturb it.
func TestChooseSubtreeOverlapAdversarial(t *testing.T) {
	box := func(x0, y0, x1, y1 int32) geom.Rect {
		return geom.Rect{Min: geom.Point{X: x0, Y: y0}, Max: geom.Point{X: x1, Y: y1}}
	}
	rep := func(r geom.Rect, n int) []geom.Rect {
		out := make([]geom.Rect, n)
		for i := range out {
			out[i] = r
		}
		return out
	}
	// A row of disjoint unit-height strips: every candidate ties on
	// Δoverlap (0) and the choice falls to area enlargement.
	var strips []geom.Rect
	for i := int32(0); i < 51; i++ {
		strips = append(strips, box(100*i, 0, 100*i+50, 10))
	}
	// Points and axis-parallel segments: all areas zero.
	var degenerate []geom.Rect
	for i := int32(0); i < 40; i++ {
		switch i % 3 {
		case 0:
			degenerate = append(degenerate, box(7*i, 11*i, 7*i, 11*i))
		case 1:
			degenerate = append(degenerate, box(7*i, 300, 7*i+90, 300))
		default:
			degenerate = append(degenerate, box(150, 5*i, 150, 5*i+200))
		}
	}
	// Nested rectangles sharing a corner: heavy mutual overlap.
	var nested []geom.Rect
	for i := int32(1); i <= 30; i++ {
		nested = append(nested, box(0, 0, 20*i, 20*i))
	}
	cases := []struct {
		name  string
		rects []geom.Rect
		rs    []geom.Rect
	}{
		{"identical", rep(box(100, 100, 200, 200), 51), []geom.Rect{
			box(120, 120, 130, 130), box(0, 0, 10, 10), box(150, 150, 400, 400), box(100, 100, 200, 200)}},
		{"identical-points", rep(box(5, 5, 5, 5), 17), []geom.Rect{box(5, 5, 5, 5), box(0, 0, 9, 9), box(6, 6, 6, 6)}},
		{"two", []geom.Rect{box(0, 0, 10, 10), box(5, 5, 15, 15)}, []geom.Rect{
			box(7, 7, 8, 8), box(20, 20, 21, 21), box(0, 12, 3, 14), box(12, 0, 14, 3)}},
		{"all-tied-strips", strips, []geom.Rect{
			box(2500, 3, 2510, 4), box(2575, 0, 2575, 10), box(0, 5000, 16383, 5000), box(60, 2, 90, 8)}},
		{"degenerate", degenerate, []geom.Rect{
			box(150, 300, 150, 300), box(0, 0, 0, 0), box(140, 290, 160, 310), box(150, 0, 150, 16383)}},
		{"nested", nested, []geom.Rect{
			box(1, 1, 2, 2), box(590, 590, 610, 610), box(700, 700, 800, 800), box(0, 0, 600, 600)}},
		{"world", []geom.Rect{geom.World(), box(0, 0, 0, 0), geom.World(), box(16383, 16383, 16383, 16383)}, []geom.Rect{
			geom.World(), box(8000, 8000, 8000, 8000)}},
	}
	for _, c := range cases {
		xmin, ymin, xmax, ymax := lanesOf(c.rects)
		for _, r := range c.rs {
			checkChoose(t, c.name, xmin, ymin, xmax, ymax, r)
		}
	}
	// Pinned: with every candidate tied on all three criteria the first
	// index wins.
	xmin, ymin, xmax, ymax := lanesOf(rep(box(100, 100, 200, 200), 9))
	if got := ChooseSubtreeOverlap(xmin, ymin, xmax, ymax, box(0, 0, 1, 1), make([]int64, 9)); got != 0 {
		t.Errorf("all-tied node: chose %d, want the first index", got)
	}
}

// chooseBenchNode is a leaf-parent node as the insert path sees it: 51
// leaf MBRs a few hundred units across, scattered over one
// neighbourhood, with the new segment's bounding box somewhere among
// them.
func chooseBenchNode(rng *rand.Rand) (xmin, ymin, xmax, ymax []int32, rs []geom.Rect) {
	var rects []geom.Rect
	for i := 0; i < 51; i++ {
		x, y := int32(4000+rng.Intn(2500)), int32(9000+rng.Intn(2500))
		rects = append(rects, geom.Rect{
			Min: geom.Point{X: x, Y: y},
			Max: geom.Point{X: x + int32(50+rng.Intn(400)), Y: y + int32(50+rng.Intn(400))},
		})
	}
	xmin, ymin, xmax, ymax = lanesOf(rects)
	for i := 0; i < benchWindows; i++ {
		x, y := int32(4000+rng.Intn(2800)), int32(9000+rng.Intn(2800))
		rs = append(rs, geom.Rect{
			Min: geom.Point{X: x, Y: y},
			Max: geom.Point{X: x + int32(rng.Intn(40)), Y: y + int32(rng.Intn(40))},
		})
	}
	return
}

func benchChoose(b *testing.B, choose func(xmin, ymin, xmax, ymax []int32, r geom.Rect, dOverlap []int64) int) {
	xmin, ymin, xmax, ymax, rs := chooseBenchNode(rand.New(rand.NewSource(43)))
	dov := make([]int64, len(xmin))
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += choose(xmin, ymin, xmax, ymax, rs[i%benchWindows], dov)
	}
	gateSink = uint64(sink)
}

func BenchmarkChooseSubtreeOverlap(b *testing.B) { benchChoose(b, ChooseSubtreeOverlap) }

func BenchmarkChooseSubtreeOverlapScalarRef(b *testing.B) { benchChoose(b, RefChooseSubtreeOverlap) }
