package kernel

import (
	"math/rand"
	"testing"

	"segdb/internal/geom"
)

// checkChoose asserts the exported kernel picks the reference's child
// and reports that child's overlap enlargement as the reference's
// all-pairs loop sums it (the kernel stops summing the children it
// rules out, so theirs are not compared).
func checkChoose(t *testing.T, label string, xmin, ymin, xmax, ymax []int32, r geom.Rect) {
	t.Helper()
	gi, gd := ChooseSubtreeOverlap(xmin, ymin, xmax, ymax, r)
	wi, wd := RefChooseSubtreeOverlap(xmin, ymin, xmax, ymax, r)
	if gi != wi || gd != wd {
		t.Fatalf("%s n=%d r=%v: kernel chose %d (Δoverlap %d), reference %d (Δoverlap %d)", label, len(xmin), r, gi, gd, wi, wd)
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
// on the chosen index and its Δoverlap, for every node
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
	if got, _ := ChooseSubtreeOverlap(xmin, ymin, xmax, ymax, box(0, 0, 1, 1)); got != 0 {
		t.Errorf("all-tied node: chose %d, want the first index", got)
	}
}

// Cases only the kernel's early exit can get wrong: the children it
// stops summing must be the ones the all-pairs reference would have
// passed over. Each node is shown with every child's (Δoverlap,
// area enlargement, area) for its r; want is the reference's choice.
func TestChooseSubtreeOverlapEarlyExit(t *testing.T) {
	box := func(x0, y0, x1, y1 int32) geom.Rect {
		return geom.Rect{Min: geom.Point{X: x0, Y: y0}, Max: geom.Point{X: x1, Y: y1}}
	}
	cases := []struct {
		name  string
		rects []geom.Rect
		r     geom.Rect
		want  int
	}{
		// Seed 2 (least enlargement) has Δ 5; children 1 and 3 tie at Δ
		// 2 and the later one wins on enlargement, so it must be summed
		// to the end although its sum reaches the best Δ so far.
		{"later-tie-smaller-enlargement", []geom.Rect{
			box(5, 8, 7, 12),  // Δ 7, enlargement 12, area 8
			box(1, 4, 3, 5),   // Δ 2, enlargement 12, area 2
			box(1, 9, 7, 10),  // Δ 5, enlargement 6, area 6
			box(4, 8, 10, 12), // Δ 2, enlargement 8, area 24
		}, box(2, 11, 3, 11), 3},
		// Seed 0 has Δ 4; children 2 and 4 tie on Δ 3 and enlargement
		// 18, and the later one wins on area.
		{"later-tie-smaller-area", []geom.Rect{
			box(0, 6, 4, 7),  // Δ 4, enlargement 16, area 4
			box(5, 4, 11, 5), // Δ 8, enlargement 27, area 6
			box(3, 1, 6, 7),  // Δ 3, enlargement 18, area 18
			box(4, 7, 5, 8),  // Δ 14, enlargement 29, area 1
			box(0, 8, 3, 12), // Δ 3, enlargement 18, area 12
		}, box(0, 2, 0, 2), 4},
		// The least Δ is the last child's alone.
		{"best-at-last-child", []geom.Rect{
			box(3, 6, 5, 7),  // Δ 15, enlargement 61, area 2
			box(9, 4, 12, 7), // Δ 1, enlargement 12, area 9 (seed)
			box(8, 3, 10, 5), // Δ 2, enlargement 16, area 4
			box(5, 2, 6, 3),  // Δ 1, enlargement 20, area 1
			box(5, 1, 6, 2),  // Δ 0, enlargement 13, area 1
		}, box(11, 0, 12, 0), 4},
		// The seed has Δ 5 > 0 while children 2 and 4 have Δ 0: the
		// search must go on past the seed and keep the first zero. Padded,
		// the first far-off point has Δ 0 too and loses the tie to child
		// 2, so the search must also go on past a best Δ of 0.
		{"seed-overlaps-other-zero", []geom.Rect{
			box(3, 6, 5, 7),  // Δ 7, enlargement 30, area 2
			box(2, 8, 6, 9),  // Δ 5, enlargement 14, area 4 (seed)
			box(7, 3, 12, 6), // Δ 0, enlargement 20, area 15
			box(3, 3, 5, 5),  // Δ 21, enlargement 52, area 4
			box(1, 9, 7, 15), // Δ 0, enlargement 24, area 36
		}, box(11, 10, 11, 10), 2},
	}
	// Far-off points ahead of a case move its children past the first
	// eight lanes, so the per-group stop is taken on them too. A point's
	// enlarged box reaches back to r, so it neither seeds the search nor
	// wins it (the reference check below holds the case to that).
	var far []geom.Rect
	for i := int32(0); i < 12; i++ {
		far = append(far, box(16000+i, 16000, 16000+i, 16000))
	}
	for _, c := range cases {
		for _, pad := range [][]geom.Rect{nil, far} {
			xmin, ymin, xmax, ymax := lanesOf(append(append([]geom.Rect(nil), pad...), c.rects...))
			if got, _ := RefChooseSubtreeOverlap(xmin, ymin, xmax, ymax, c.r); got != len(pad)+c.want {
				t.Fatalf("%s: reference chose %d, the case expects %d", c.name, got, len(pad)+c.want)
			}
			checkChoose(t, c.name, xmin, ymin, xmax, ymax, c.r)
		}
	}
}

// chooseBenchNode is a leaf-parent node as the insert path sees it: 51
// leaf MBRs a few hundred units across, scattered over one
// neighbourhood, with the new segment's bounding box somewhere among
// them. With seedOverlaps every box is one the seed child (least area
// enlargement, then area, then index) cannot take without growing its
// overlap, so every call runs the bounded search past the seed.
func chooseBenchNode(rng *rand.Rand, seedOverlaps bool) (xmin, ymin, xmax, ymax []int32, rs []geom.Rect) {
	var rects []geom.Rect
	for i := 0; i < 51; i++ {
		x, y := int32(4000+rng.Intn(2500)), int32(9000+rng.Intn(2500))
		rects = append(rects, geom.Rect{
			Min: geom.Point{X: x, Y: y},
			Max: geom.Point{X: x + int32(50+rng.Intn(400)), Y: y + int32(50+rng.Intn(400))},
		})
	}
	xmin, ymin, xmax, ymax = lanesOf(rects)
	for len(rs) < benchWindows {
		x, y := int32(4000+rng.Intn(2800)), int32(9000+rng.Intn(2800))
		r := geom.Rect{
			Min: geom.Point{X: x, Y: y},
			Max: geom.Point{X: x + int32(rng.Intn(40)), Y: y + int32(rng.Intn(40))},
		}
		if !seedOverlaps || seedDeltaOverlap(rects, r) > 0 {
			rs = append(rs, r)
		}
	}
	return
}

// seedDeltaOverlap returns the overlap enlargement of the child least in
// (area enlargement, area, index) when it takes r.
func seedDeltaOverlap(rects []geom.Rect, r geom.Rect) int64 {
	seed := 0
	for i, e := range rects {
		s := rects[seed]
		if d, ds := e.Enlargement(r), s.Enlargement(r); d < ds || (d == ds && e.Area() < s.Area()) {
			seed = i
		}
	}
	e, enlarged := rects[seed], rects[seed].Union(r)
	var d int64
	for _, o := range rects {
		d += enlarged.OverlapArea(o) - e.OverlapArea(o)
	}
	return d
}

func benchChoose(b *testing.B, seedOverlaps bool, choose func(xmin, ymin, xmax, ymax []int32, r geom.Rect) (int, int64)) {
	xmin, ymin, xmax, ymax, rs := chooseBenchNode(rand.New(rand.NewSource(43)), seedOverlaps)
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		c, _ := choose(xmin, ymin, xmax, ymax, rs[i%benchWindows])
		sink += c
	}
	gateSink = uint64(sink)
}

// The node=any fixture is the insert path's common case; node=seed-overlaps
// prices the bounded search alone.
func BenchmarkChooseSubtreeOverlap(b *testing.B) {
	b.Run("node=any", func(b *testing.B) { benchChoose(b, false, ChooseSubtreeOverlap) })
	b.Run("node=seed-overlaps", func(b *testing.B) { benchChoose(b, true, ChooseSubtreeOverlap) })
}

func BenchmarkChooseSubtreeOverlapScalarRef(b *testing.B) {
	b.Run("node=any", func(b *testing.B) { benchChoose(b, false, RefChooseSubtreeOverlap) })
	b.Run("node=seed-overlaps", func(b *testing.B) { benchChoose(b, true, RefChooseSubtreeOverlap) })
}
