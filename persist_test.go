package segdb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

func populate(t *testing.T, db *DB, n int, seed int64) []Segment {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	segs := make([]Segment, 0, n)
	for i := 0; i < n; i++ {
		x := int32(rng.Intn(WorldSize - 500))
		y := int32(rng.Intn(WorldSize - 500))
		s := Seg(x, y, x+int32(rng.Intn(500)), y+int32(rng.Intn(500)))
		if _, err := db.Add(s); err != nil {
			t.Fatal(err)
		}
		segs = append(segs, s)
	}
	return segs
}

func TestSaveLoadRoundTripAllKinds(t *testing.T) {
	for _, k := range allKinds() {
		db, err := Open(k, nil)
		if err != nil {
			t.Fatal(err)
		}
		segs := populate(t, db, 700, int64(k)+50)

		var buf bytes.Buffer
		if err := db.Save(&buf); err != nil {
			t.Fatalf("%v: save: %v", k, err)
		}
		restored, err := Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%v: load: %v", k, err)
		}
		if restored.Kind() != k || restored.Len() != db.Len() {
			t.Fatalf("%v: kind=%v len=%d after load", k, restored.Kind(), restored.Len())
		}

		// Query equivalence on windows and nearest.
		rng := rand.New(rand.NewSource(99))
		for trial := 0; trial < 25; trial++ {
			r := RectOf(
				int32(rng.Intn(WorldSize)), int32(rng.Intn(WorldSize)),
				int32(rng.Intn(WorldSize)), int32(rng.Intn(WorldSize)))
			var a, b []SegmentID
			db.Window(r, func(id SegmentID, _ Segment) bool { a = append(a, id); return true })
			restored.Window(r, func(id SegmentID, _ Segment) bool { b = append(b, id); return true })
			sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
			sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
			if len(a) != len(b) {
				t.Fatalf("%v trial %d: window %d vs %d results", k, trial, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%v trial %d: window result %d differs", k, trial, i)
				}
			}
			p := Pt(int32(rng.Intn(WorldSize)), int32(rng.Intn(WorldSize)))
			ra, _ := db.Nearest(p)
			rb, _ := restored.Nearest(p)
			if ra.DistSq != rb.DistSq {
				t.Fatalf("%v trial %d: nearest %v vs %v", k, trial, ra.DistSq, rb.DistSq)
			}
		}

		// The restored database remains fully writable.
		if _, err := restored.Add(Seg(1, 1, 77, 77)); err != nil {
			t.Fatalf("%v: add after load: %v", k, err)
		}
		res, err := restored.Nearest(Pt(2, 2))
		if err != nil || !res.Found || res.Seg != Seg(1, 1, 77, 77) {
			t.Fatalf("%v: post-load insert invisible: %+v %v", k, res, err)
		}
		if err := restored.Delete(0); err != nil {
			t.Fatalf("%v: delete after load: %v", k, err)
		}
		_ = segs
	}
}

// TestImageIndependentOfPoolSize builds the same map one segment at a
// time under a pool far smaller than the working set and under one that
// holds it all, and requires byte-identical segment-table and index
// images. A page allocated into an evicted page's buffer must not carry
// the victim's bytes past what its writer fills.
func TestImageIndependentOfPoolSize(t *testing.T) {
	m, err := GenerateCounty("Charles")
	if err != nil {
		t.Fatal(err)
	}
	m.Segments = m.Segments[:6000]
	image := func(kind Kind, poolPages int) []byte {
		db, err := Open(kind, WithPoolPages(poolPages))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.Load(m); err != nil {
			t.Fatal(err)
		}
		if err := db.table.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := db.pool.Flush(); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := db.table.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := db.pool.Disk().WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, kind := range allKinds() {
		if !bytes.Equal(image(kind, 16), image(kind, 4096)) {
			t.Errorf("%v: the image saved with a 16-page pool differs from the one saved with 4096 pages", kind)
		}
	}
}

func TestSaveLoadPreservesOptions(t *testing.T) {
	db, err := Open(PMRQuadtree, WithPageSize(2048), WithPoolPages(8), WithPMRThreshold(8), WithPMRStoreMBR(true))
	if err != nil {
		t.Fatal(err)
	}
	populate(t, db, 300, 7)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.opts != db.opts {
		t.Fatalf("options differ: %+v vs %+v", restored.opts, db.opts)
	}
	// The restored StoreMBR tree keeps answering correctly.
	res, err := restored.Nearest(Pt(8000, 8000))
	if err != nil || !res.Found {
		t.Fatalf("nearest: %+v %v", res, err)
	}
}

// TestOpenRefusesWhatLoadRefuses holds Open to the header bounds Load
// applies: a page or pool size Load would refuse is an invalid argument
// at Open (not a panic, and not a durable database whose checkpoint can
// never be recovered), and the largest legal pool round-trips through
// both Save/Load and a WAL's checkpoint.
func TestOpenRefusesWhatLoadRefuses(t *testing.T) {
	bad := map[string]Option{
		"pool -1":       WithPoolPages(-1),
		"pool 70000":    WithPoolPages(70000),
		"page -5":       WithPageSize(-5),
		"page 48":       WithPageSize(48),
		"page 2 MiB":    WithPageSize(2 << 20),
		"compression 3": WithPageCompression(3),
	}
	for _, k := range allKinds() {
		for name, opt := range bad {
			db, err := Open(k, opt)
			if !errors.Is(err, ErrInvalidArgument) {
				t.Errorf("%v, %s: Open = %v, %v; want ErrInvalidArgument", k, name, db, err)
			}
			if db, err := Open(k, WithWALFS(NewMemWALFS()), opt); !errors.Is(err, ErrInvalidArgument) {
				t.Errorf("%v, %s, WAL: Open = %v, %v; want ErrInvalidArgument", k, name, db, err)
			}
		}

		wfs := NewMemWALFS()
		db, err := Open(k, WithWALFS(wfs), WithPoolPages(maxPoolPages))
		if err != nil {
			t.Fatalf("%v: Open at the largest pool: %v", k, err)
		}
		populate(t, db, 50, int64(k))
		var buf bytes.Buffer
		if err := db.Save(&buf); err != nil {
			t.Fatalf("%v: Save: %v", k, err)
		}
		loaded, err := Load(&buf)
		if err != nil {
			t.Fatalf("%v: Load at the largest pool: %v", k, err)
		}
		recovered, _, err := RecoverFS(wfs)
		if err != nil {
			t.Fatalf("%v: RecoverFS at the largest pool: %v", k, err)
		}
		for _, got := range []*DB{loaded, recovered} {
			if got.opts.PoolPages != maxPoolPages || got.Len() != 50 {
				t.Errorf("%v: reopened with a %d-page pool and %d segments, want %d and 50", k, got.opts.PoolPages, got.Len(), maxPoolPages)
			}
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a database"))); err == nil {
		t.Error("garbage accepted")
	}
	// Truncated file.
	db, _ := Open(RStarTree, nil)
	populate(t, db, 100, 3)
	var buf bytes.Buffer
	db.Save(&buf)
	if _, err := Load(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); err == nil {
		t.Error("truncated file accepted")
	}
}

// TestLoadRefusesOtherGridResolution holds Load to the one uniform grid
// resolution: an image whose header (checksum intact) records any other
// is refused with an error naming it.
func TestLoadRefusesOtherGridResolution(t *testing.T) {
	db, _ := Open(UniformGrid)
	populate(t, db, 50, 5)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	// Magic, eight header words, the metadata words, then the CRC32.
	const cellsWord = 8 + 5*4
	if got := binary.LittleEndian.Uint32(img[cellsWord:]); got != 64 {
		t.Fatalf("header word 5 = %d, want 64", got)
	}
	crcAt := 8 + 8*4 + 8*int(binary.LittleEndian.Uint32(img[8+6*4:]))
	binary.LittleEndian.PutUint32(img[cellsWord:], 16)
	binary.LittleEndian.PutUint32(img[crcAt:], crc32.ChecksumIEEE(img[:crcAt]))
	if _, err := Load(bytes.NewReader(img)); err == nil || !strings.Contains(err.Error(), "grid resolution 16") {
		t.Fatalf("Load of a 16-cell image = %v, want a grid resolution error", err)
	}
}

func TestSaveIsDeterministicAfterFlush(t *testing.T) {
	db, _ := Open(RPlusTree, nil)
	populate(t, db, 200, 4)
	var b1, b2 bytes.Buffer
	if err := db.Save(&b1); err != nil {
		t.Fatal(err)
	}
	if err := db.Save(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("back-to-back saves differ")
	}
}
