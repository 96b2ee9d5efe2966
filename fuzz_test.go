package segdb

import (
	"bytes"
	"os"
	"testing"
)

// removedLevel2Image reads one of the images saved at page compression
// level 2 by the last commit that had it.
func removedLevel2Image(tb testing.TB, name string) []byte {
	tb.Helper()
	data, err := os.ReadFile("testdata/removed_level2/" + name + ".segdb")
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzLoad feeds arbitrary bytes to the database loader. The property:
// Load never panics and never over-allocates from a lying header; it
// either returns a database whose integrity check runs to completion or a
// descriptive error.
func FuzzLoad(f *testing.F) {
	// Seed with valid saved databases of a few kinds, classic and
	// compressed — the fuzzer should mutate v3 (SEGDB003 + compressed
	// page) images as readily as v1 ones — and, per kind, the image the
	// same 25 segments produced at page compression level 2 before that
	// level was removed (the bytes Save wrote then): Load must refuse it.
	for _, seed := range []struct {
		kind Kind
		name string
	}{
		{PMRQuadtree, "pmr"}, {RStarTree, "rstar"}, {UniformGrid, "grid"},
	} {
		for _, level := range []int{0, 1} {
			db, err := Open(seed.kind, WithPageCompression(level))
			if err != nil {
				f.Fatal(err)
			}
			for _, s := range crashSegments(25, int64(seed.kind)) {
				if _, err := db.Add(s); err != nil {
					f.Fatal(err)
				}
			}
			var buf bytes.Buffer
			if err := db.Save(&buf); err != nil {
				f.Fatal(err)
			}
			f.Add(buf.Bytes())
		}
		f.Add(removedLevel2Image(f, seed.name))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever loaded must be checkable without panicking; the report
		// itself may be healthy or not.
		_ = db.CheckIntegrity()
	})
}
