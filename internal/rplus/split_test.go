package rplus

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"segdb/internal/geom"
	"segdb/internal/obs"
	"segdb/internal/rpage"
	"segdb/internal/tiger"
)

// refLines is the candidate set the brute-force choice was given: the
// distinct member-extent boundaries (min and max+1 on each axis) strictly
// inside the region, x lines then y lines, each ascending.
func refLines(region geom.Rect, segs []geom.Segment, entries []rpage.Entry) []splitLine {
	var xs, ys []int32
	for _, s := range segs {
		b := s.Bounds()
		xs = append(xs, b.Min.X, b.Max.X+1)
		ys = append(ys, b.Min.Y, b.Max.Y+1)
	}
	for _, e := range entries {
		xs = append(xs, e.Rect.Min.X, e.Rect.Max.X+1)
		ys = append(ys, e.Rect.Min.Y, e.Rect.Max.Y+1)
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	sort.Slice(ys, func(i, j int) bool { return ys[i] < ys[j] })
	var out []splitLine
	for i, x := range xs {
		if (i == 0 || x != xs[i-1]) && x > region.Min.X && x <= region.Max.X {
			out = append(out, splitLine{axis: 0, coord: x})
		}
	}
	for i, y := range ys {
		if (i == 0 || y != ys[i-1]) && y > region.Min.Y && y <= region.Max.Y {
			out = append(out, splitLine{axis: 1, coord: y})
		}
	}
	return out
}

// refChooseLine is the brute-force line choice the sweep replaces, kept
// as its oracle: for every candidate, count the members meeting each
// half, skip unproductive lines, keep the fewest cuts, then the smallest
// skew, then the first candidate.
func refChooseLine(region geom.Rect, cands []splitLine, total int, count func(lo, hi geom.Rect) (int, int)) (splitLine, bool) {
	bestCuts, bestSkew := -1, 0
	var best splitLine
	for _, l := range cands {
		lo, hi := l.halves(region)
		if !lo.Valid() || !hi.Valid() {
			continue
		}
		nLo, nHi := count(lo, hi)
		if nLo >= total || nHi >= total {
			continue // unproductive: one side keeps everything
		}
		cuts := nLo + nHi - total
		skew := nLo - nHi
		if skew < 0 {
			skew = -skew
		}
		if bestCuts < 0 || cuts < bestCuts || (cuts == bestCuts && skew < bestSkew) {
			bestCuts, bestSkew, best = cuts, skew, l
		}
	}
	return best, bestCuts >= 0
}

// refLeafCount counts a leaf's segments meeting each half, one charged
// comparison per segment.
func refLeafCount(segs []geom.Segment, o *obs.Op) func(lo, hi geom.Rect) (int, int) {
	return func(lo, hi geom.Rect) (nLo, nHi int) {
		for _, s := range segs {
			o.NodeComps(1)
			if lo.IntersectsSegment(s) {
				nLo++
			}
			if hi.IntersectsSegment(s) {
				nHi++
			}
		}
		return nLo, nHi
	}
}

// refInternalCount counts an internal node's child regions meeting each
// half, one charged comparison per child.
func refInternalCount(entries []rpage.Entry, o *obs.Op) func(lo, hi geom.Rect) (int, int) {
	return func(lo, hi geom.Rect) (nLo, nHi int) {
		for _, e := range entries {
			o.NodeComps(1)
			if e.Rect.Intersects(lo) {
				nLo++
			}
			if e.Rect.Intersects(hi) {
				nHi++
			}
		}
		return nLo, nHi
	}
}

// lineChoice is one split's input and the line the tree chose for it.
type lineChoice struct {
	region  geom.Rect
	segs    []geom.Segment
	entries []rpage.Entry
	best    splitLine
	ok      bool
}

// checkChoice runs a split's members through the sweep and through the
// brute-force candidates, choice and count, each charging its own
// operation, and fails unless both propose the same candidates and choose
// the same line at the same charge. It returns the sweep's choice.
func checkChoice(t *testing.T, tr *Tree, name string, c lineChoice) (splitLine, bool) {
	t.Helper()
	var sweepOp, refOp obs.Op
	var cands []splitLine
	tr.w.probe = func(_ geom.Rect, cs []splitLine, _ []geom.Segment, _ []rpage.Entry, _ splitLine, _ bool) {
		cands = append([]splitLine(nil), cs...)
	}
	tr.o = &sweepOp
	got, gotOK := tr.chooseLine(c.region, c.segs, c.entries)
	tr.o, tr.w.probe = nil, nil
	refCands := refLines(c.region, c.segs, c.entries)
	if !slices.Equal(cands, refCands) {
		t.Fatalf("%s: sweep proposed %v, oracle %v", name, cands, refCands)
	}
	count := refLeafCount(c.segs, &refOp)
	if c.segs == nil {
		count = refInternalCount(c.entries, &refOp)
	}
	want, wantOK := refChooseLine(c.region, refCands, len(c.segs)+len(c.entries), count)
	if got != want || gotOK != wantOK {
		t.Fatalf("%s: region %v, %d members, %d candidates: sweep chose %+v (ok %v), oracle %+v (ok %v)",
			name, c.region, len(c.segs)+len(c.entries), len(refCands), got, gotOK, want, wantOK)
	}
	if g, w := sweepOp.Stats().NodeComps, refOp.Stats().NodeComps; g != w {
		t.Fatalf("%s: sweep charged %d comparisons, oracle %d", name, g, w)
	}
	return got, gotOK
}

// TestChooseLineMatchesOracle holds the sweep to the brute-force count:
// every leaf and internal split of a one-at-a-time Charles load, for the
// R+-tree and the k-d-B-tree, and leaves built to sit on the predicate's
// edges.
func TestChooseLineMatchesOracle(t *testing.T) {
	spec, _ := tiger.CountyByName("Charles")
	m, err := tiger.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{DefaultConfig(), KDBConfig()} {
		t.Run(fmt.Sprintf("charles/leafMBR=%v", cfg.LeafMBR), func(t *testing.T) {
			var choices []lineChoice
			e := newEnv(t, 1024, 64, cfg)
			e.tree.w.probe = func(region geom.Rect, _ []splitLine, segs []geom.Segment, entries []rpage.Entry, best splitLine, ok bool) {
				choices = append(choices, lineChoice{
					region: region, best: best, ok: ok,
					segs:    append([]geom.Segment(nil), segs...),
					entries: append([]rpage.Entry(nil), entries...),
				})
			}
			for _, s := range m.Segments {
				e.add(t, s)
			}
			e.tree.w.probe = nil
			leaves, internals := 0, 0
			for i, c := range choices {
				if c.segs != nil {
					leaves++
				} else {
					internals++
				}
				if got, ok := checkChoice(t, e.tree, fmt.Sprintf("split %d", i), c); got != c.best || ok != c.ok {
					t.Fatalf("split %d: the load chose %+v (ok %v), the replay %+v (ok %v)", i, c.best, c.ok, got, ok)
				}
			}
			if leaves == 0 || internals == 0 {
				t.Fatalf("load made %d leaf and %d internal splits; want both", leaves, internals)
			}
		})
	}
	t.Run("adversarial", func(t *testing.T) {
		e := newEnv(t, 1024, 64, DefaultConfig())
		region := geom.RectOf(100, 100, 200, 200)
		leaf := func(name string, segs ...geom.Segment) {
			t.Helper()
			checkChoice(t, e.tree, name, lineChoice{region: region, segs: segs})
		}
		leaf("on a candidate line",
			geom.Seg(150, 100, 150, 200), geom.Seg(150, 120, 150, 130), geom.Seg(140, 150, 160, 150),
			geom.Seg(120, 150, 150, 150), geom.Seg(150, 150, 180, 150), geom.Seg(151, 110, 151, 190),
			geom.Seg(149, 110, 149, 190), geom.Seg(110, 110, 190, 190))
		leaf("zero length",
			geom.Seg(150, 150, 150, 150), geom.Seg(150, 150, 150, 150), geom.Seg(151, 150, 151, 150),
			geom.Seg(100, 100, 100, 100), geom.Seg(200, 200, 200, 200), geom.Seg(120, 180, 120, 180),
			geom.Seg(120, 181, 121, 181))
		leaf("on the region boundary",
			geom.Seg(100, 100, 100, 200), geom.Seg(200, 100, 200, 200), geom.Seg(100, 100, 200, 100),
			geom.Seg(100, 200, 200, 200), geom.Seg(100, 130, 100, 170), geom.Seg(130, 200, 170, 200),
			geom.Seg(200, 150, 200, 151), geom.Seg(150, 150, 160, 160))
		leaf("corner touch",
			geom.Seg(50, 50, 100, 100), geom.Seg(200, 200, 250, 250), geom.Seg(90, 210, 100, 200),
			geom.Seg(200, 100, 260, 40), geom.Seg(100, 100, 200, 200), geom.Seg(150, 150, 170, 120),
			geom.Seg(110, 120, 130, 140))
		var gap []geom.Segment
		for c := int32(110); c <= 190; c += 10 {
			// Between y=100 and y=200 the diagonal crosses x = c-1/2 only:
			// it meets the region but neither half of the line x = c,
			// which the short segment beside it makes a candidate.
			d := geom.Seg(c-1, 100-1000*(c-100), c, 200+1000*(c-100))
			if lo, hi := (splitLine{axis: 0, coord: c}).halves(region); lo.IntersectsSegment(d) || hi.IntersectsSegment(d) || !region.IntersectsSegment(d) {
				t.Fatalf("%v does not fall in the gap at x = %d", d, c)
			}
			gap = append(gap, d, geom.Seg(c, 160, c+2, 160))
		}
		leaf("steep diagonals in the gap", gap...)
		leaf("all meet at one point",
			geom.Seg(150, 150, 100, 100), geom.Seg(150, 150, 200, 200), geom.Seg(150, 150, 100, 200),
			geom.Seg(150, 150, 200, 100), geom.Seg(150, 150, 150, 100), geom.Seg(150, 150, 150, 200))
		rng := rand.New(rand.NewSource(42))
		for trial := 0; trial < 2000; trial++ {
			segs := make([]geom.Segment, 2+rng.Intn(60))
			for i := range segs {
				p := geom.Pt(90+int32(rng.Intn(121)), 90+int32(rng.Intn(121)))
				q := geom.Pt(p.X+int32(rng.Intn(9))-4, p.Y+int32(rng.Intn(9))-4)
				if rng.Intn(4) == 0 { // a steep one through the gap beside a line
					q = geom.Pt(p.X+1, p.Y+int32(rng.Intn(4001))-2000)
				}
				segs[i] = geom.Segment{P1: p, P2: q}
			}
			leaf(fmt.Sprintf("random leaf %d", trial), segs...)
		}
	})
}
