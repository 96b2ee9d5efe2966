package rstar

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"segdb/internal/geom"
	"segdb/internal/kernel"
	"segdb/internal/seg"
	"segdb/internal/store"
	"segdb/internal/tiger"
)

// The write path runs on the overlap-enlargement kernel, per-insert
// counter charges and reused scratch; the trees it builds must be, page
// for page, the trees the scalar insert path built before any of that.
// The goldens below were produced by that earlier code (the commit before
// the kernel landed) from this exact workload, and the test is run by CI
// both with and without `-tags kernelref`, so the kernel, its scalar
// reference and the earlier implementation are all held to one image.
//
// The image hashes (not the computation counts) were regenerated once,
// when Pool.Allocate began zeroing the buffer it hands out: until then a
// new page reusing an evicted page's buffer kept the victim's bytes past
// the entries its writer filled. Every page that changed decodes to the
// same node as before, so the trees themselves are unchanged.

// goldenSegments is a rural county of ~6,500 segments plus a few hundred
// axis-parallel ones, whose zero-area bounding boxes exercise the
// degenerate overlap and area terms.
func goldenSegments(tb testing.TB) []geom.Segment {
	tb.Helper()
	m, err := tiger.Generate(tiger.Spec{Name: "golden", Kind: tiger.Rural, Seed: 15, Lattice: 11, SubdivMin: 25, SubdivMax: 35, DeleteFrac: 0.2})
	if err != nil {
		tb.Fatal(err)
	}
	segs := m.Segments
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 400; i++ {
		x, y := int32(rng.Intn(geom.WorldSize-600)), int32(rng.Intn(geom.WorldSize-600))
		d := int32(1 + rng.Intn(500))
		s := geom.Seg(x, y, x+d, y) // horizontal
		if i%2 == 1 {
			s = geom.Seg(x, y, x, y+d) // vertical
		}
		// Scatter them through the load rather than appending a block.
		at := rng.Intn(len(segs) + 1)
		segs = append(segs, geom.Segment{})
		copy(segs[at+1:], segs[at:])
		segs[at] = s
	}
	return segs
}

// goldenBuild inserts the golden workload one segment at a time, then
// deletes and reinserts a tenth of it, and returns the SHA-256 of the
// flushed disk image followed by the tree's root, height and count, and
// the bounding box computations the whole workload charged.
func goldenBuild(t *testing.T, cfg Config) (string, uint64) {
	t.Helper()
	segs := goldenSegments(t)
	if len(segs) < 5000 {
		t.Fatalf("golden workload has only %d segments", len(segs))
	}
	env := newEnv(t, store.DefaultPageSize, store.DefaultPoolPages, cfg)
	ids := make([]seg.ID, len(segs))
	for i, s := range segs {
		ids[i] = env.add(t, s)
	}
	rng := rand.New(rand.NewSource(17))
	for _, i := range rng.Perm(len(ids))[:len(ids)/10] {
		if err := env.tree.Delete(ids[i], &env.op); err != nil {
			t.Fatalf("delete %d: %v", ids[i], err)
		}
		if err := env.tree.Insert(ids[i], &env.op); err != nil {
			t.Fatalf("reinsert %d: %v", ids[i], err)
		}
	}
	if err := env.tree.Validate(nil); err != nil {
		t.Fatal(err)
	}
	if err := env.tree.Pool.Flush(); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	if _, err := env.tree.Pool.Disk().WriteTo(h); err != nil {
		t.Fatal(err)
	}
	for _, v := range env.tree.PersistMeta() {
		h.Write([]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)})
	}
	return hex.EncodeToString(h.Sum(nil)), env.op.Stats().NodeComps
}

func TestInsertPathMatchesGolden(t *testing.T) {
	compressed := DefaultConfig()
	compressed.Compression = 1
	for _, c := range []struct {
		name  string
		cfg   Config
		image string
		comps uint64
	}{
		{"rstar", DefaultConfig(), "0acca7d4c9c56826f25a443b2216a03b0dd84a713de0da16bb5fa2cf370f42fc", 19856070},
		{"guttman", GuttmanConfig(), "34fdeb1ce753a1ab8ba6b1af0cb6ec4aed0ffcd4873d390d6cc22af7ec173558", 1191257},
		{"rstar-compressed", compressed, "671f215f0374db78e355441387157cec0e0f9842f3d041c89e23a7c8992455aa", 45391395},
	} {
		t.Run(c.name, func(t *testing.T) {
			image, comps := goldenBuild(t, c.cfg)
			if image != c.image {
				t.Errorf("disk image %s, golden %s", image, c.image)
			}
			if comps != c.comps {
				t.Errorf("bounding box computations %d, golden %d", comps, c.comps)
			}
		})
	}
}

// BenchmarkRStarInsert is the one-at-a-time R*-tree load Table 1 times,
// over the fixed golden map (~7K segments) and over the repository
// benchmark's Charles county (50,187).
func BenchmarkRStarInsert(b *testing.B) {
	for _, c := range []struct {
		name string
		segs func() []geom.Segment
	}{
		{"map=golden", func() []geom.Segment { return goldenSegments(b) }},
		{"map=Charles", func() []geom.Segment { return charlesSegments(b) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			segs := c.segs()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				table := seg.NewTable(store.DefaultPageSize, store.DefaultPoolPages)
				tree, err := New(store.NewPool(store.NewDisk(store.DefaultPageSize), store.DefaultPoolPages), table, DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				ids := make([]seg.ID, len(segs))
				for j, s := range segs {
					if ids[j], err = table.Append(s); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				for _, id := range ids {
					if err := tree.Insert(id, nil); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(len(segs)), "segments")
		})
	}
}

// charlesSegments is the repository benchmark's Charles county (50,187
// segments).
func charlesSegments(tb testing.TB) []geom.Segment {
	tb.Helper()
	spec, _ := tiger.CountyByName("Charles")
	m, err := tiger.Generate(spec)
	if err != nil {
		tb.Fatal(err)
	}
	return m.Segments
}

// The overlap-enlargement kernel stops summing a child once it cannot
// win; on the nodes a real load builds it must still make the all-pairs
// reference's choice. Every leaf-parent node of a Charles load is asked
// to take the bounding boxes of the map's segments in and around it,
// inside and outside its children alike.
func TestChooseSubtreeMatchesReferenceOnCharles(t *testing.T) {
	if kernel.UsingRef {
		t.Skip("-tags kernelref serves the reference as the kernel; nothing to compare")
	}
	segs := charlesSegments(t)
	env := newEnv(t, store.DefaultPageSize, store.DefaultPoolPages, DefaultConfig())
	boxes := make([]geom.Rect, len(segs))
	for i, s := range segs {
		env.add(t, s)
		boxes[i] = s.Bounds()
	}
	const perNode = 300
	var nodes, calls, bounded int
	var walk func(id store.PageID, level int)
	walk = func(id store.PageID, level int) {
		n, err := env.tree.ReadNode(id, level)
		if err != nil {
			t.Fatal(err)
		}
		if level > 2 {
			for _, e := range n.Entries {
				walk(store.PageID(e.Ptr), level-1)
			}
			return
		}
		nodes++
		var xmin, ymin, xmax, ymax []int32
		for _, e := range n.Entries {
			xmin, ymin = append(xmin, e.Rect.Min.X), append(ymin, e.Rect.Min.Y)
			xmax, ymax = append(xmax, e.Rect.Max.X), append(ymax, e.Rect.Max.Y)
		}
		// The node's MBR grown by a quarter of its extent on each side.
		around := n.MBR()
		dx, dy := (around.Max.X-around.Min.X)/4, (around.Max.Y-around.Min.Y)/4
		around.Min.X, around.Min.Y, around.Max.X, around.Max.Y = around.Min.X-dx, around.Min.Y-dy, around.Max.X+dx, around.Max.Y+dy
		var near []geom.Rect
		for _, b := range boxes {
			if b.Intersects(around) {
				near = append(near, b)
			}
		}
		step := max(1, len(near)/perNode)
		for i := 0; i < len(near); i += step {
			r := near[i]
			gi, gd := kernel.ChooseSubtreeOverlap(xmin, ymin, xmax, ymax, r)
			wi, wd := kernel.RefChooseSubtreeOverlap(xmin, ymin, xmax, ymax, r)
			if gi != wi || gd != wd {
				t.Fatalf("leaf-parent page %d (%d children) r=%v: kernel chose %d (Δoverlap %d), reference %d (Δoverlap %d)",
					id, len(n.Entries), r, gi, gd, wi, wd)
			}
			calls++
			if wd > 0 { // only the bounded search past the seed returns Δ > 0
				bounded++
			}
		}
	}
	walk(env.tree.Root, env.tree.Levels)
	if nodes < 10 || bounded == 0 {
		t.Fatalf("%d leaf-parent nodes, %d of %d boxes chosen with Δoverlap > 0: the load no longer exercises the bounded search", nodes, bounded, calls)
	}
	t.Logf("%d leaf-parent nodes, %d boxes, %d chosen with Δoverlap > 0", nodes, calls, bounded)
}
