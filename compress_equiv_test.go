package segdb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
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
// compression levels 1 and 2 must answer every paper query identically
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
			for _, level := range []int{1, 2} {
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
func TestCompressionShrinksIndex(t *testing.T) {
	segs := bulkSample(t, 3000)
	rng := rand.New(rand.NewSource(1992))
	windows := make([]Rect, 96)
	for i := range windows {
		x, y, side := rng.Int31n(WorldSize-1024), rng.Int31n(WorldSize-1024), 256+rng.Int31n(768)
		windows[i] = RectOf(x, y, x+side, y+side)
	}
	windowAccesses := func(kind Kind, db *DB) uint64 {
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
		return db.Metrics().Sub(base).DiskAccesses
	}
	build := func(kind Kind, level int) *DB {
		t.Helper()
		db, err := Open(kind, WithPageCompression(level), WithPoolPages(32))
		if err != nil {
			t.Fatalf("Open(%v, level %d): %v", kind, level, err)
		}
		if _, err := db.AddBatch(segs); err != nil {
			t.Fatalf("%v level %d: AddBatch: %v", kind, level, err)
		}
		return db
	}
	for _, kind := range allKinds() {
		base := build(kind, 0)
		comp := build(kind, 1)
		bs, err := base.PageFormatStats()
		if err != nil {
			t.Fatalf("%v: stats: %v", kind, err)
		}
		cs, err := comp.PageFormatStats()
		if err != nil {
			t.Fatalf("%v: stats: %v", kind, err)
		}
		if bs.Formats["v1"] == 0 || bs.Formats["v3"]+bs.Formats["v3-16"]+bs.Formats["v3-8"] != 0 {
			t.Fatalf("%v level 0 wrote compressed pages: %v", kind, bs.Formats)
		}
		if cs.Formats["v3"]+cs.Formats["v3-16"] == 0 {
			t.Fatalf("%v level 1 wrote no compressed pages: %v", kind, cs.Formats)
		}
		if cs.AvgLeafFanout() < 1.5*bs.AvgLeafFanout() {
			t.Errorf("%v: level-1 leaf fanout %.1f < 1.5x level-0 %.1f",
				kind, cs.AvgLeafFanout(), bs.AvgLeafFanout())
		}
		b, c := windowAccesses(kind, base), windowAccesses(kind, comp)
		if b == 0 || c > b {
			t.Errorf("%v: %d windows cost level-1 pages %d disk accesses, level-0 pages %d; want fewer or equal, and not zero",
				kind, len(windows), c, b)
		}
		t.Logf("%v: fanout %.1f -> %.1f, disk accesses %d -> %d", kind, bs.AvgLeafFanout(), cs.AvgLeafFanout(), b, c)
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
			db, err := Open(kind, WithWALFS(clean), WithPageCompression(2))
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
				db, err := Open(kind, WithWALFS(wfs), WithPageCompression(2))
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
				if rec.opts.PageCompression != 2 {
					t.Fatalf("n=%d: recovered compression level %d, want 2", n, rec.opts.PageCompression)
				}
				if r := rec.CheckIntegrity(); !r.Healthy() {
					t.Fatalf("n=%d: recovered db unhealthy: %v", n, r.Err())
				}
				ref, err := Open(kind, WithPageCompression(2))
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
