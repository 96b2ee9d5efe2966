package segdb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"
)

// buildCompressed applies the torture workload (adds and deletes, no
// checkpoints) to a fresh database of the given kind and compression
// level.
func buildCompressed(t *testing.T, kind Kind, level int, ops []crashOp) *DB {
	t.Helper()
	db, err := Open(kind, WithPageCompression(level))
	if err != nil {
		t.Fatalf("Open(%v, level %d): %v", kind, level, err)
	}
	for i, op := range ops {
		if op.ckpt {
			continue
		}
		if err := op.apply(db); err != nil {
			t.Fatalf("%v level %d: op %d: %v", kind, level, i, err)
		}
	}
	return db
}

// TestCompressionEquivalenceAllKinds is the acceptance test for the
// compressed page formats: for every index kind, a database built at
// compression level 1 must answer every paper query identically
// to the classic level-0 build, pass its integrity check, and keep both
// properties across a Save/Load round trip.
func TestCompressionEquivalenceAllKinds(t *testing.T) {
	const nAdds = 220
	const seed = 41
	ops := crashOps(nAdds, seed)
	probe := crashSegments(nAdds, seed)
	for _, kind := range allKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			base := buildCompressed(t, kind, 0, ops)
			want := crashFingerprint(t, base, probe)
			const level = 1
			db := buildCompressed(t, kind, level, ops)
			if r := db.CheckIntegrity(); !r.Healthy() {
				t.Fatalf("level %d: integrity: %v", level, r.Err())
			}
			if got := crashFingerprint(t, db, probe); got != want {
				t.Fatalf("level %d queries diverge from level 0:\nlevel %d:\n%s\nlevel 0:\n%s", level, level, got, want)
			}
			var buf bytes.Buffer
			if err := db.Save(&buf); err != nil {
				t.Fatalf("level %d: Save: %v", level, err)
			}
			re, err := Load(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("level %d: Load: %v", level, err)
			}
			if re.opts.PageCompression != level {
				t.Fatalf("reloaded level = %d, want %d", re.opts.PageCompression, level)
			}
			if r := re.CheckIntegrity(); !r.Healthy() {
				t.Fatalf("level %d reloaded: integrity: %v", level, r.Err())
			}
			if got := crashFingerprint(t, re, probe); got != want {
				t.Fatalf("level %d reloaded queries diverge from level 0", level)
			}
		})
	}
}

// TestCompressionShrinksIndex checks the format pays for itself: on a
// bulk-built index (leaves packed to capacity) level 1 must fit at least
// 1.5x more leaf entries per leaf page than level 0 for every kind.
// Incrementally built trees gain less — split policies keep leaves
// part-full regardless of capacity — so the bound is asserted where
// occupancy reflects the format, not the workload.
//
// The fanout must also reach the paper's currency: one fixed window set,
// run after an identical warm-up pass, may not cost level-1 pages more
// disk accesses than level-0 pages. The run is sequential, so the counts
// are deterministic. The 32-page pool is below every R-tree-family
// working set on this map, so the counts are not zero, and it is the
// configuration the claim is made for: k-d-B leaf entries carry the leaf
// region, not the segment's rectangle, so a fuller leaf fetches more
// segments per visit, and under a 16-page pool that outweighs the saved
// index pages (589 accesses become 693).
//
// The window cost is held for each kind built two ways — packed through
// AddBatch and one segment at a time through Load, the paper's build —
// and both builds also hold level 1 to level 0's segment comparisons on
// the five kinds whose leaf entries carry the segment's own rectangle: a
// lossless page prunes exactly what a classic page prunes (the
// k-d-B-tree is left out for the fuller-leaf effect above: 8,778 become
// 10,337 built through Load). The Load build prices a format in a tree
// every insert has rewritten. It passes for level 1 and, while level 2
// (8-bit outward-rounded rectangles, re-rounded on every node rewrite)
// existed, failed for it on the R*-tree with 645 disk accesses against
// 167 and 31,507 segment comparisons against 592 — with answers
// identical and the integrity check green, which is why that level is
// gone.
func TestCompressionShrinksIndex(t *testing.T) {
	segs := bulkSample(t, 3000)
	rng := rand.New(rand.NewSource(1992))
	windows := make([]Rect, 96)
	for i := range windows {
		x, y, side := rng.Int31n(WorldSize-1024), rng.Int31n(WorldSize-1024), 256+rng.Int31n(768)
		windows[i] = RectOf(x, y, x+side, y+side)
	}
	windowCost := func(kind Kind, db *DB) Metrics {
		t.Helper()
		var base Metrics
		for pass := 0; pass < 2; pass++ {
			base = db.Metrics()
			for _, r := range windows {
				if err := db.Window(r, func(SegmentID, Segment) bool { return true }); err != nil {
					t.Fatalf("%v: Window(%v): %v", kind, r, err)
				}
			}
		}
		return db.Metrics().Sub(base)
	}
	build := func(kind Kind, level int, packed bool) *DB {
		t.Helper()
		db, err := Open(kind, WithPageCompression(level), WithPoolPages(32))
		if err != nil {
			t.Fatalf("Open(%v, level %d): %v", kind, level, err)
		}
		if packed {
			_, err = db.AddBatch(segs)
		} else {
			_, err = db.Load(&MapData{Segments: segs})
		}
		if err != nil {
			t.Fatalf("%v level %d packed=%v: build: %v", kind, level, packed, err)
		}
		return db
	}
	for _, kind := range allKinds() {
		for _, packed := range []bool{true, false} {
			base, comp := build(kind, 0, packed), build(kind, 1, packed)
			bs, err := base.PageFormatStats()
			if err != nil {
				t.Fatalf("%v: stats: %v", kind, err)
			}
			cs, err := comp.PageFormatStats()
			if err != nil {
				t.Fatalf("%v: stats: %v", kind, err)
			}
			if bs.Formats["v1"] == 0 || bs.Formats["v3"]+bs.Formats["v3-16"] != 0 {
				t.Fatalf("%v level 0 wrote compressed pages: %v", kind, bs.Formats)
			}
			if cs.Formats["v3"]+cs.Formats["v3-16"] == 0 {
				t.Fatalf("%v level 1 wrote no compressed pages: %v", kind, cs.Formats)
			}
			if packed && cs.AvgLeafFanout() < 1.5*bs.AvgLeafFanout() {
				t.Errorf("%v: level-1 leaf fanout %.1f < 1.5x level-0 %.1f",
					kind, cs.AvgLeafFanout(), bs.AvgLeafFanout())
			}
			b, c := windowCost(kind, base), windowCost(kind, comp)
			if b.DiskAccesses == 0 || c.DiskAccesses > b.DiskAccesses {
				t.Errorf("%v packed=%v: %d windows cost level-1 pages %d disk accesses, level-0 pages %d; want fewer or equal, and not zero",
					kind, packed, len(windows), c.DiskAccesses, b.DiskAccesses)
			}
			if kind != KDBTree && c.SegComps != b.SegComps {
				t.Errorf("%v packed=%v: %d windows cost level-1 pages %d segment comparisons, level-0 pages %d; a lossless page must prune the same",
					kind, packed, len(windows), c.SegComps, b.SegComps)
			}
			t.Logf("%v packed=%v: fanout %.1f -> %.1f, disk accesses %d -> %d, segment comparisons %d -> %d", kind, packed,
				bs.AvgLeafFanout(), cs.AvgLeafFanout(), b.DiskAccesses, c.DiskAccesses, b.SegComps, c.SegComps)
		}
	}
}

// TestCompressedImageCrashRecovery crashes a WAL-backed compressed
// database mid-workload, recovers from the surviving files, and
// requires the recovered database to keep its compression level, pass
// integrity, and answer queries exactly like a clean replay of the
// committed prefix (also built compressed).
func TestCompressedImageCrashRecovery(t *testing.T) {
	const nAdds = 48
	const seed = 59
	ops := crashOps(nAdds, seed)
	probe := crashSegments(nAdds, seed)
	for _, kind := range []Kind{RStarTree, RPlusTree, PMRQuadtree, UniformGrid} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			// Bound the sweep with a crash-free run.
			clean := NewMemWALFS()
			db, err := Open(kind, WithWALFS(clean), WithPageCompression(1))
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			clean.SetCrashAfterWrites(0, seed)
			for _, op := range ops {
				if err := op.apply(db); err != nil {
					t.Fatalf("crash-free workload: %v", err)
				}
			}
			total := clean.Writes()
			for _, n := range []uint64{1, total / 3, total / 2, total - 1} {
				if n == 0 {
					continue
				}
				wfs := NewMemWALFS()
				db, err := Open(kind, WithWALFS(wfs), WithPageCompression(1))
				if err != nil {
					t.Fatalf("n=%d: Open: %v", n, err)
				}
				wfs.SetCrashAfterWrites(n, int64(n)*17+seed)
				var opErr error
				for _, op := range ops {
					if opErr = op.apply(db); opErr != nil {
						break
					}
				}
				if opErr != nil && !errors.Is(opErr, ErrWALCrash) {
					t.Fatalf("n=%d: non-crash error: %v", n, opErr)
				}
				wfs.Reboot()
				rec, rep, err := RecoverFS(wfs)
				if err != nil {
					t.Fatalf("n=%d: RecoverFS: %v", n, err)
				}
				if rec.opts.PageCompression != 1 {
					t.Fatalf("n=%d: recovered compression level %d, want 1", n, rec.opts.PageCompression)
				}
				if r := rec.CheckIntegrity(); !r.Healthy() {
					t.Fatalf("n=%d: recovered db unhealthy: %v", n, r.Err())
				}
				ref, err := Open(kind, WithPageCompression(1))
				if err != nil {
					t.Fatalf("n=%d: Open ref: %v", n, err)
				}
				var applied uint64
				for _, op := range ops {
					if op.ckpt {
						continue
					}
					if applied == rep.Seq {
						break
					}
					if err := op.apply(ref); err != nil {
						t.Fatalf("n=%d: clean replay: %v", n, err)
					}
					applied++
				}
				if got, want := crashFingerprint(t, rec, probe), crashFingerprint(t, ref, probe); got != want {
					t.Fatalf("n=%d: recovered queries diverge from clean compressed replay of %d mutations:\nrecovered:\n%s\nclean:\n%s",
						n, rep.Seq, got, want)
				}
			}
		})
	}
}

// TestPageCompressionLevelRefused holds the two facade entry points to
// "off or lossless": Open errors on every level but 0 and 1, and Load
// refuses an image whose header names level 2 — the bytes Save wrote
// when the 8-bit format existed — with a message that says the format
// was removed. The refusal comes from the header alone, before the
// checksum is read or anything is sized from the file: the image cut off
// right after its eight header words fails the same way.
func TestPageCompressionLevelRefused(t *testing.T) {
	for _, level := range []int{2, 3, -1} {
		if _, err := Open(RStarTree, WithPageCompression(level)); err == nil {
			t.Errorf("Open at level %d succeeded, want an error", level)
		} else if level == 2 && !strings.Contains(err.Error(), "removed format") {
			t.Errorf("Open at level 2: %v, want the removed-format message", err)
		}
	}
	for _, name := range []string{"rstar", "pmr", "grid"} {
		image := removedLevel2Image(t, name)
		if got := binary.LittleEndian.Uint32(image[8+7*4:]); got != 2 {
			t.Fatalf("%s: header word 7 = %d, want 2", name, got)
		}
		for _, data := range [][]byte{image, image[:8+8*4]} {
			_, err := Load(bytes.NewReader(data))
			if err == nil || !strings.Contains(err.Error(), "removed format") {
				t.Errorf("%s (%d bytes): Load err = %v, want the removed-format message", name, len(data), err)
			}
		}
	}
}

// TestLoadAcceptsV2Images synthesizes a format-002 file (7 header
// words, no compression field) from a fresh level-0 save and checks the
// loader still accepts it, defaulting compression to 0.
func TestLoadAcceptsV2Images(t *testing.T) {
	db, err := Open(PMRQuadtree)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range crashSegments(30, 7) {
		if _, err := db.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	v3 := buf.Bytes()
	// v3 layout: magic(8) | 8 x uint32 header | meta x uint64 | crc32 |
	// table image | index image. The v2 layout drops header word 7 (the
	// compression level) and uses the 002 magic; its CRC covers exactly
	// the bytes written.
	metaWords := binary.LittleEndian.Uint32(v3[8+6*4:])
	headerEnd := 8 + 8*4
	metaEnd := headerEnd + int(metaWords)*8
	var v2 bytes.Buffer
	v2.WriteString("SEGDB002")
	v2.Write(v3[8 : 8+7*4])
	v2.Write(v3[headerEnd:metaEnd])
	binary.Write(&v2, binary.LittleEndian, crc32.ChecksumIEEE(v2.Bytes()))
	v2.Write(v3[metaEnd+4:])

	re, err := Load(bytes.NewReader(v2.Bytes()))
	if err != nil {
		t.Fatalf("loading synthesized v2 image: %v", err)
	}
	if re.opts.PageCompression != 0 {
		t.Fatalf("v2 image loaded with compression %d, want 0", re.opts.PageCompression)
	}
	if r := re.CheckIntegrity(); !r.Healthy() {
		t.Fatalf("v2 image unhealthy: %v", r.Err())
	}
	if re.Len() != db.Len() {
		t.Fatalf("v2 image has %d segments, want %d", re.Len(), db.Len())
	}
}

// TestPageFormatStatsCountsEveryQEdge holds PageFormatStats's B+-tree
// page classifier to the tree it walks: for the PMR quadtree (with and
// without a rectangle per q-edge) and the grid, at both compression
// levels, its leaf entries are the index's q-edges.
func TestPageFormatStatsCountsEveryQEdge(t *testing.T) {
	segs := bulkSample(t, 3000)
	for _, kind := range []Kind{PMRQuadtree, UniformGrid} {
		for _, storeMBR := range []bool{false, true} {
			for _, level := range []int{0, 1} {
				db, err := Open(kind, WithPMRStoreMBR(storeMBR), WithPageCompression(level))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := db.Load(&MapData{Segments: segs}); err != nil {
					t.Fatal(err)
				}
				stats, err := db.PageFormatStats()
				if err != nil {
					t.Fatal(err)
				}
				if want := db.index.(interface{ QEdges() int }).QEdges(); stats.LeafEntries != want {
					t.Errorf("%v StoreMBR=%v level %d: %d leaf entries, index holds %d q-edges",
						kind, storeMBR, level, stats.LeafEntries, want)
				}
			}
		}
	}
}
