package segdb

import (
	"bytes"
	"context"
	"go/ast"
	"go/token"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func allKinds() []Kind {
	return []Kind{RStarTree, RPlusTree, PMRQuadtree, KDBTree, UniformGrid, ClassicRTree}
}

func TestOpenAllKinds(t *testing.T) {
	for _, k := range allKinds() {
		db, err := Open(k, nil)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if db.Kind() != k || db.Len() != 0 {
			t.Fatalf("%v: bad fresh db", k)
		}
	}
	if _, err := Open(Kind(99), nil); err == nil {
		t.Error("expected error for unknown kind")
	}
}

func TestAddQueryRoundTrip(t *testing.T) {
	for _, k := range allKinds() {
		db, err := Open(k, nil)
		if err != nil {
			t.Fatal(err)
		}
		a, err := db.Add(Seg(100, 100, 200, 100))
		if err != nil {
			t.Fatal(err)
		}
		b, err := db.Add(Seg(200, 100, 200, 200))
		if err != nil {
			t.Fatal(err)
		}
		if db.Len() != 2 {
			t.Fatalf("%v: Len = %d", k, db.Len())
		}
		got, err := db.Get(a)
		if err != nil || got != Seg(100, 100, 200, 100) {
			t.Fatalf("%v: Get = %v, %v", k, got, err)
		}
		// Nearest.
		res, _, err := db.NearestCtx(context.Background(), Pt(150, 110))
		if err != nil || !res.Found || res.ID != a {
			t.Fatalf("%v: Nearest = %+v, %v", k, res, err)
		}
		// IncidentAt the shared corner.
		count := 0
		db.IncidentAtCtx(context.Background(), Pt(200, 100), func(SegmentID, Segment) bool { count++; return true })
		if count != 2 {
			t.Fatalf("%v: IncidentAt found %d", k, count)
		}
		// OtherEndpoint of a from (100,100) is (200,100): both segments.
		count = 0
		db.OtherEndpointCtx(context.Background(), a, Pt(100, 100), func(SegmentID, Segment) bool { count++; return true })
		if count != 2 {
			t.Fatalf("%v: OtherEndpoint found %d", k, count)
		}
		// Window.
		count = 0
		db.Window(RectOf(0, 0, 300, 300), func(SegmentID, Segment) bool { count++; return true })
		if count != 2 {
			t.Fatalf("%v: Window found %d", k, count)
		}
		// Delete.
		if err := db.Delete(b); err != nil {
			t.Fatalf("%v: delete: %v", k, err)
		}
		count = 0
		db.Window(World(), func(SegmentID, Segment) bool { count++; return true })
		if count != 1 {
			t.Fatalf("%v: after delete window found %d", k, count)
		}
	}
}

func TestAddRejectsOutOfWorld(t *testing.T) {
	db, _ := Open(PMRQuadtree, nil)
	if _, err := db.Add(Seg(-1, 0, 5, 5)); err == nil {
		t.Error("negative coordinate accepted")
	}
	if _, err := db.Add(Seg(0, 0, WorldSize, 5)); err == nil {
		t.Error("coordinate == WorldSize accepted")
	}
}

func TestMetricsMeasure(t *testing.T) {
	db, _ := Open(RStarTree, nil)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		x := int32(rng.Intn(WorldSize - 100))
		y := int32(rng.Intn(WorldSize - 100))
		if _, err := db.Add(Seg(x, y, x+int32(rng.Intn(100)), y+int32(rng.Intn(100)))); err != nil {
			t.Fatal(err)
		}
	}
	db.DropCaches()
	_, m, err := db.NearestCtx(context.Background(), Pt(8000, 8000))
	if err != nil {
		t.Fatal(err)
	}
	if m.DiskAccesses() == 0 || m.SegComps == 0 || m.NodeComps == 0 {
		t.Errorf("cold query metrics should all advance: %+v", m)
	}
	if db.IndexSizeBytes() <= 0 || db.TableSizeBytes() <= 0 {
		t.Error("sizes should be positive")
	}
}

func TestGenerateCounty(t *testing.T) {
	names := CountyNames()
	if len(names) != 6 {
		t.Fatalf("CountyNames = %v", names)
	}
	if _, err := GenerateCounty("Narnia"); err == nil {
		t.Error("unknown county accepted")
	}
	m, err := GenerateCounty("Baltimore")
	if err != nil {
		t.Fatal(err)
	}
	if m.Class != "urban" || len(m.Segments) < 40000 {
		t.Fatalf("Baltimore = class %q, %d segments", m.Class, len(m.Segments))
	}
}

func TestLoadCountyAndQueryEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// A real (reduced-size) end-to-end pass: city-block lookup on an
	// urban map through the public API.
	m, err := GenerateCounty("Baltimore")
	if err != nil {
		t.Fatal(err)
	}
	m.Segments = m.Segments[:8000] // a corner of the county, still planar
	db, err := Open(PMRQuadtree, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Load(m); err != nil {
		t.Fatal(err)
	}
	res, _, err := db.NearestCtx(context.Background(), Pt(500, 500))
	if err != nil || !res.Found {
		t.Fatalf("nearest: %+v %v", res, err)
	}
	poly, _, err := db.EnclosingPolygonCtx(context.Background(), Pt(res.Seg.P1.X+1, res.Seg.P1.Y+1))
	if err != nil {
		t.Fatal(err)
	}
	if poly.Size() < 3 {
		t.Fatalf("polygon size %d", poly.Size())
	}
}

func TestParseTIGER(t *testing.T) {
	// Two road chains and a stream in Record Type 1 fixed-width form.
	records := "" +
		record1(1, "A41", -76938000, 38986000, -76933000, 38986500) +
		record1(2, "A41", -76933000, 38986500, -76930000, 38987000) +
		record1(3, "H11", -76936000, 38984000, -76934000, 38988000)
	m, err := ParseTIGER(strings.NewReader(records))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Segments) != 2 {
		t.Fatalf("got %d road segments, want 2", len(m.Segments))
	}
	db, err := Open(PMRQuadtree, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Load(m); err != nil {
		t.Fatal(err)
	}
	res, _, err := db.NearestCtx(context.Background(), Pt(WorldSize/2, WorldSize/2))
	if err != nil || !res.Found {
		t.Fatalf("nearest over imported data: %+v %v", res, err)
	}
	// Keeping streams too:
	m2, err := ParseTIGER(strings.NewReader(records), "A", "H")
	if err != nil {
		t.Fatal(err)
	}
	if len(m2.Segments) != 3 {
		t.Fatalf("got %d segments with A+H, want 3", len(m2.Segments))
	}
}

// record1 builds a fixed-width TIGER Record Type 1 line for tests.
func record1(tlid int64, cfcc string, flong, flat, tlong, tlat int64) string {
	buf := []byte(strings.Repeat(" ", 228))
	buf[0] = '1'
	put := func(start, end int, s string) {
		for i := 0; i < len(s) && end-1-i >= start; i++ {
			buf[end-1-i] = s[len(s)-1-i]
		}
	}
	sgn := func(v int64) string {
		if v >= 0 {
			return "+" + strconv.FormatInt(v, 10)
		}
		return strconv.FormatInt(v, 10)
	}
	put(5, 15, strconv.FormatInt(tlid, 10))
	copy(buf[55:58], cfcc)
	put(190, 200, sgn(flong))
	put(200, 209, strconv.FormatInt(flat, 10))
	put(209, 219, sgn(tlong))
	put(219, 228, strconv.FormatInt(tlat, 10))
	return string(buf) + "\n"
}

func TestNearestKFacade(t *testing.T) {
	db, _ := Open(RPlusTree, nil)
	db.Add(Seg(0, 0, 10, 0))
	db.Add(Seg(0, 100, 10, 100))
	db.Add(Seg(0, 300, 10, 300))
	got, _, err := db.NearestKAppendCtx(context.Background(), Pt(5, 0), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID != 0 || got[1].ID != 1 {
		t.Fatalf("NearestK = %+v", got)
	}
}

// TestAddBatchIntoEmpty packs a map into empty databases with AddBatch and
// checks that the bulk-built index answers and survives Save/Load.
func TestAddBatchIntoEmpty(t *testing.T) {
	m := &MapData{Segments: []Segment{
		Seg(10, 10, 100, 10),
		Seg(100, 10, 100, 100),
		Seg(100, 100, 10, 100),
		Seg(10, 100, 10, 10),
	}}
	for _, k := range []Kind{RStarTree, ClassicRTree, PMRQuadtree} {
		db, err := Open(k, nil)
		if err != nil {
			t.Fatal(err)
		}
		ids, err := db.AddBatch(m.Segments)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if len(ids) != 4 || db.Len() != 4 {
			t.Fatalf("%v: loaded %d", k, db.Len())
		}
		res, _, err := db.NearestCtx(context.Background(), Pt(50, 5))
		if err != nil || !res.Found || res.ID != ids[0] {
			t.Fatalf("%v: nearest %+v %v", k, res, err)
		}
		// Packed databases survive save/load too.
		var buf bytes.Buffer
		if err := db.Save(&buf); err != nil {
			t.Fatalf("%v: save: %v", k, err)
		}
		back, err := Load(&buf)
		if err != nil || back.Len() != 4 {
			t.Fatalf("%v: load: %v", k, err)
		}
	}
}

// TestFacadeSurface pins *DB's exported methods. Each operation has one
// entry point, so adding a method — a plain or Ctx twin of a query
// above all — takes a deliberate edit to this list.
func TestFacadeSurface(t *testing.T) {
	want := []string{
		"Add", "AddBatch", "CheckIntegrity", "Checkpoint", "Compact",
		"DecodeCacheStats", "Delete", "DropCaches", "EnclosingPolygonCtx",
		"Epoch", "Get", "IncidentAtCtx", "Index", "IndexSizeBytes", "Kind",
		"Len", "Load", "LockedReads", "Metrics", "NearestCtx",
		"NearestKAppendCtx", "OtherEndpointCtx", "OverlayCtx",
		"PageFormatStats", "Profile", "Quarantined", "Save", "Scrub",
		"SetDegradedReads", "SetFaultPolicy", "SetRetryPolicy", "SetTracer",
		"StagedSize", "TableSizeBytes", "WALSize", "Window",
		"WindowAppendCtx", "WindowBatchCtx", "WindowCtx",
	}
	ty := reflect.TypeOf((*DB)(nil))
	var got []string
	for i := range ty.NumMethod() {
		got = append(got, ty.Method(i).Name)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("*DB methods = %q\nwant %q", got, want)
	}
}

// TestOptionSurface pins the exported functions that return an Option,
// as TestFacadeSurface pins *DB: the construction parameters a saved
// image restores, the log location and the database's modes. Runtime
// state attaches through *DB's Set* methods, never through an Option.
func TestOptionSurface(t *testing.T) {
	want := []string{
		"WithCompactThreshold", "WithPMRStoreMBR", "WithPMRThreshold",
		"WithPageCompression", "WithPageSize", "WithPoolPages",
		"WithStagedIngest", "WithWAL", "WithWALFS",
	}
	var got []string
	eachSource(t, token.NewFileSet(), func(path string, f *ast.File) {
		if strings.Contains(path, "/") {
			return // another package
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !fn.Name.IsExported() || fn.Type.Results == nil {
				continue
			}
			for _, r := range fn.Type.Results.List {
				if id, ok := r.Type.(*ast.Ident); ok && id.Name == "Option" {
					got = append(got, fn.Name.Name)
				}
			}
		}
	})
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("funcs returning Option = %q\nwant %q", got, want)
	}
}
