package kernel

import (
	"math"
	"math/rand"
	"testing"

	"segdb/internal/geom"
)

// randLanes fills n-entry coordinate lanes with valid rectangles
// (min <= max per axis) drawn from the world grid, plus a sprinkling of
// degenerate (point) rects and rects touching the world edges.
func randLanes(rng *rand.Rand, n int) (xmin, ymin, xmax, ymax []int32) {
	xmin = make([]int32, n)
	ymin = make([]int32, n)
	xmax = make([]int32, n)
	ymax = make([]int32, n)
	for i := 0; i < n; i++ {
		var r geom.Rect
		switch rng.Intn(8) {
		case 0: // degenerate point rect
			p := geom.Point{X: int32(rng.Intn(geom.WorldSize)), Y: int32(rng.Intn(geom.WorldSize))}
			r = geom.Rect{Min: p, Max: p}
		case 1: // touches the world boundary
			r = geom.Rect{
				Min: geom.Point{X: 0, Y: int32(rng.Intn(geom.WorldSize))},
				Max: geom.Point{X: geom.WorldSize - 1, Y: geom.WorldSize - 1},
			}
		default:
			x1, x2 := int32(rng.Intn(geom.WorldSize)), int32(rng.Intn(geom.WorldSize))
			y1, y2 := int32(rng.Intn(geom.WorldSize)), int32(rng.Intn(geom.WorldSize))
			if x2 < x1 {
				x1, x2 = x2, x1
			}
			if y2 < y1 {
				y1, y2 = y2, y1
			}
			r = geom.Rect{Min: geom.Point{X: x1, Y: y1}, Max: geom.Point{X: x2, Y: y2}}
		}
		xmin[i], ymin[i], xmax[i], ymax[i] = r.Min.X, r.Min.Y, r.Max.X, r.Max.Y
	}
	return
}

func randRect(rng *rand.Rand) geom.Rect {
	x1, x2 := int32(rng.Intn(geom.WorldSize)), int32(rng.Intn(geom.WorldSize))
	y1, y2 := int32(rng.Intn(geom.WorldSize)), int32(rng.Intn(geom.WorldSize))
	if x2 < x1 {
		x1, x2 = x2, x1
	}
	if y2 < y1 {
		y1, y2 = y2, y1
	}
	return geom.Rect{Min: geom.Point{X: x1, Y: y1}, Max: geom.Point{X: x2, Y: y2}}
}

// The exported kernels must return bit-identical masks to the scalar
// references built on the geom.Rect predicates, across randomized lanes
// of every width up to (and past) LaneWidth.
func TestMaskKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	widths := []int{0, 1, 2, 3, 31, 32, 33, 50, 51, 63, 64}
	for trial := 0; trial < 500; trial++ {
		n := widths[trial%len(widths)]
		xmin, ymin, xmax, ymax := randLanes(rng, n)
		q := randRect(rng)
		if got, want := IntersectMask(xmin, ymin, xmax, ymax, q), RefIntersectMask(xmin, ymin, xmax, ymax, q); got != want {
			t.Fatalf("trial %d n=%d: IntersectMask %064b != ref %064b (q=%v)", trial, n, got, want, q)
		}
		if got, want := ContainsMask(xmin, ymin, xmax, ymax, q), RefContainsMask(xmin, ymin, xmax, ymax, q); got != want {
			t.Fatalf("trial %d n=%d: ContainsMask %064b != ref %064b (q=%v)", trial, n, got, want, q)
		}
	}
}

// packLanes packs coordinate lanes into the SWAR form; every rect from
// randLanes is in the world grid and therefore packable.
func packLanes(t *testing.T, xmin, ymin, xmax, ymax []int32) []uint64 {
	t.Helper()
	packed := make([]uint64, len(xmin))
	for i := range xmin {
		w, ok := PackRect(xmin[i], ymin[i], xmax[i], ymax[i])
		if !ok {
			t.Fatalf("entry %d (%d,%d)-(%d,%d) unexpectedly unpackable", i, xmin[i], ymin[i], xmax[i], ymax[i])
		}
		packed[i] = w
	}
	return packed
}

// PackRect/UnpackRect must round-trip every in-domain rect and reject
// every out-of-domain coordinate.
func TestPackRectRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 1000; trial++ {
		xmin, ymin, xmax, ymax := randLanes(rng, 1)
		w, ok := PackRect(xmin[0], ymin[0], xmax[0], ymax[0])
		if !ok {
			t.Fatalf("world rect rejected: (%d,%d)-(%d,%d)", xmin[0], ymin[0], xmax[0], ymax[0])
		}
		got := UnpackRect(w)
		want := geom.Rect{Min: geom.Point{X: xmin[0], Y: ymin[0]}, Max: geom.Point{X: xmax[0], Y: ymax[0]}}
		if got != want {
			t.Fatalf("round trip: packed %v unpacked to %v", want, got)
		}
	}
	bad := [][4]int32{
		{-1, 0, 0, 0},
		{0, -1, 0, 0},
		{0, 0, PackCoordMax + 1, PackCoordMax},
		{0, 0, PackCoordMax, PackCoordMax + 1},
		{math.MinInt32, math.MinInt32, math.MaxInt32, math.MaxInt32},
	}
	for _, c := range bad {
		if _, ok := PackRect(c[0], c[1], c[2], c[3]); ok {
			t.Errorf("out-of-domain rect packed: %v", c)
		}
	}
}

// The packed kernels must agree bit for bit with the unpacked kernels
// and the scalar references — including for query rectangles far outside
// the packable domain, where the clamped comparison must still be exact.
func TestPackedKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	widths := []int{0, 1, 2, 3, 31, 32, 33, 50, 51, 63, 64}
	outside := []geom.Rect{
		{Min: geom.Point{X: -500, Y: -500}, Max: geom.Point{X: -100, Y: -100}},                                     // fully below
		{Min: geom.Point{X: PackCoordMax + 1, Y: 0}, Max: geom.Point{X: PackCoordMax + 900, Y: 100}},               // fully above in x
		{Min: geom.Point{X: -100, Y: -100}, Max: geom.Point{X: PackCoordMax + 100, Y: PackCoordMax + 100}},         // superset of the domain
		{Min: geom.Point{X: -100, Y: 50}, Max: geom.Point{X: 100, Y: 60}},                                          // straddles the low edge
		{Min: geom.Point{X: PackCoordMax - 5, Y: 0}, Max: geom.Point{X: PackCoordMax + 5, Y: PackCoordMax}},        // straddles the high edge
		{Min: geom.Point{X: math.MinInt32, Y: math.MinInt32}, Max: geom.Point{X: math.MaxInt32, Y: math.MaxInt32}}, // extreme
	}
	for trial := 0; trial < 500; trial++ {
		n := widths[trial%len(widths)]
		xmin, ymin, xmax, ymax := randLanes(rng, n)
		packed := packLanes(t, xmin, ymin, xmax, ymax)
		q := randRect(rng)
		if trial%4 == 3 {
			q = outside[trial%len(outside)]
		}
		wantI := RefIntersectMask(xmin, ymin, xmax, ymax, q)
		if got := IntersectMaskPacked(packed, q); got != wantI {
			t.Fatalf("trial %d n=%d: IntersectMaskPacked %064b != ref %064b (q=%v)", trial, n, got, wantI, q)
		}
		if got := RefIntersectMaskPacked(packed, q); got != wantI {
			t.Fatalf("trial %d n=%d: RefIntersectMaskPacked %064b != ref %064b (q=%v)", trial, n, got, wantI, q)
		}
		wantC := RefContainsMask(xmin, ymin, xmax, ymax, q)
		if got := ContainsMaskPacked(packed, q); got != wantC {
			t.Fatalf("trial %d n=%d: ContainsMaskPacked %064b != ref %064b (q=%v)", trial, n, got, wantC, q)
		}
		if got := RefContainsMaskPacked(packed, q); got != wantC {
			t.Fatalf("trial %d n=%d: RefContainsMaskPacked %064b != ref %064b (q=%v)", trial, n, got, wantC, q)
		}
	}
}

// Lanes wider than LaneWidth are truncated to the first 64 entries by
// both the kernels and the references.
func TestMaskKernelsTruncateAtLaneWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	xmin, ymin, xmax, ymax := randLanes(rng, 2*LaneWidth)
	q := randRect(rng)
	if got, want := IntersectMask(xmin, ymin, xmax, ymax, q), IntersectMask(xmin[:LaneWidth], ymin[:LaneWidth], xmax[:LaneWidth], ymax[:LaneWidth], q); got != want {
		t.Fatalf("IntersectMask over %d lanes differs from first %d: %064b != %064b", 2*LaneWidth, LaneWidth, got, want)
	}
	if got, want := RefIntersectMask(xmin, ymin, xmax, ymax, q), IntersectMask(xmin, ymin, xmax, ymax, q); got != want {
		t.Fatalf("wide-lane truncation differs between ref and kernel: %064b != %064b", got, want)
	}
}

// MinDistLB must be bit-equivalent (not just approximately equal) to
// geom.Rect.DistSqToPoint: the k-NN priority queue orders by these
// values, and any ULP of difference could reorder equal-distance pops
// and change disk-access counts.
func TestMinDistLBBitEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(70)
		xmin, ymin, xmax, ymax := randLanes(rng, n)
		p := geom.Point{X: int32(rng.Intn(geom.WorldSize)), Y: int32(rng.Intn(geom.WorldSize))}
		got := make([]float64, n)
		want := make([]float64, n)
		MinDistLB(xmin, ymin, xmax, ymax, p, got)
		RefMinDistLB(xmin, ymin, xmax, ymax, p, want)
		for i := 0; i < n; i++ {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d entry %d: MinDistLB %v (bits %x) != ref %v (bits %x)",
					trial, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
			r := geom.Rect{Min: geom.Point{X: xmin[i], Y: ymin[i]}, Max: geom.Point{X: xmax[i], Y: ymax[i]}}
			if d := r.DistSqToPoint(p); math.Float64bits(got[i]) != math.Float64bits(d) {
				t.Fatalf("trial %d entry %d: MinDistLB %v != DistSqToPoint %v", trial, i, got[i], d)
			}
		}
	}
}

// A point inside a rect, on its edge, and outside each flank must
// produce exactly the mask/distance the geom predicates produce —
// pinned cases on top of the randomized sweep.
func TestKernelsPinnedCases(t *testing.T) {
	r := geom.Rect{Min: geom.Point{X: 10, Y: 20}, Max: geom.Point{X: 30, Y: 40}}
	lanesX := []int32{r.Min.X}
	lanesY := []int32{r.Min.Y}
	lanesMX := []int32{r.Max.X}
	lanesMY := []int32{r.Max.Y}
	cases := []struct {
		q    geom.Rect
		hit  bool
		cont bool
	}{
		{geom.Rect{Min: geom.Point{X: 30, Y: 40}, Max: geom.Point{X: 50, Y: 60}}, true, false},  // corner touch
		{geom.Rect{Min: geom.Point{X: 31, Y: 40}, Max: geom.Point{X: 50, Y: 60}}, false, false}, // off by one in x
		{geom.Rect{Min: geom.Point{X: 10, Y: 20}, Max: geom.Point{X: 30, Y: 40}}, true, true},   // exact equality contains
		{geom.Rect{Min: geom.Point{X: 9, Y: 19}, Max: geom.Point{X: 31, Y: 41}}, true, true},    // strict superset
		{geom.Rect{Min: geom.Point{X: 11, Y: 20}, Max: geom.Point{X: 31, Y: 41}}, true, false},  // clipped on one flank
	}
	for i, c := range cases {
		m := IntersectMask(lanesX, lanesY, lanesMX, lanesMY, c.q)
		if got := m&1 == 1; got != c.hit {
			t.Errorf("case %d: IntersectMask hit=%v want %v", i, got, c.hit)
		}
		cm := ContainsMask(lanesX, lanesY, lanesMX, lanesMY, c.q)
		if got := cm&1 == 1; got != c.cont {
			t.Errorf("case %d: ContainsMask contains=%v want %v", i, got, c.cont)
		}
	}
}

// The mask benchmarks cycle through many query windows rather than
// repeating one: a fixed window lets the branch predictor memorize the
// scalar loop's exact hit/miss pattern across iterations, something no
// real query stream allows. Varying the window per call is the honest
// comparison — it is what the traversal hot path actually does.
const benchWindows = 512

func benchQueries(rng *rand.Rand) []geom.Rect {
	qs := make([]geom.Rect, benchWindows)
	for i := range qs {
		qs[i] = randRect(rng)
	}
	return qs
}

func BenchmarkIntersectMaskSoA(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	xmin, ymin, xmax, ymax := randLanes(rng, 51)
	qs := benchQueries(rng)
	b.ReportAllocs()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= IntersectMask(xmin, ymin, xmax, ymax, qs[i%benchWindows])
	}
	_ = sink
}

func BenchmarkIntersectMaskScalarRef(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	xmin, ymin, xmax, ymax := randLanes(rng, 51)
	qs := benchQueries(rng)
	b.ReportAllocs()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= RefIntersectMask(xmin, ymin, xmax, ymax, qs[i%benchWindows])
	}
	_ = sink
}

func BenchmarkIntersectMaskPacked(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	xmin, ymin, xmax, ymax := randLanes(rng, 51)
	packed := make([]uint64, 51)
	for i := range packed {
		packed[i], _ = PackRect(xmin[i], ymin[i], xmax[i], ymax[i])
	}
	qs := benchQueries(rng)
	b.ReportAllocs()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= IntersectMaskPacked(packed, qs[i%benchWindows])
	}
	_ = sink
}

func BenchmarkMinDistLBSoA(b *testing.B) {
	rng := rand.New(rand.NewSource(19))
	xmin, ymin, xmax, ymax := randLanes(rng, 51)
	p := geom.Point{X: 8000, Y: 8000}
	out := make([]float64, 51)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MinDistLB(xmin, ymin, xmax, ymax, p, out)
	}
}

func BenchmarkMinDistLBScalarRef(b *testing.B) {
	rng := rand.New(rand.NewSource(19))
	xmin, ymin, xmax, ymax := randLanes(rng, 51)
	p := geom.Point{X: 8000, Y: 8000}
	out := make([]float64, 51)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RefMinDistLB(xmin, ymin, xmax, ymax, p, out)
	}
}
