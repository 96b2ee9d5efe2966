package segdb

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"segdb/internal/core"
	"segdb/internal/grid"
	"segdb/internal/harness"
	"segdb/internal/kinds"
	"segdb/internal/pmr"
	"segdb/internal/rplus"
	"segdb/internal/rstar"
	"segdb/internal/store"
	"segdb/internal/tiger"
)

// indexPool returns the buffer pool over a disk structure's own pages.
func indexPool(t *testing.T, ix core.Index) *store.Pool {
	t.Helper()
	switch ix := ix.(type) {
	case *rstar.Tree:
		return ix.Pool
	case *rplus.Tree:
		return ix.Pool
	case *pmr.Tree:
		return ix.Pool()
	case *grid.Grid:
		return ix.Pool()
	}
	t.Fatalf("%s: not a disk structure", ix.Name())
	return nil
}

// samePages fails unless the two disks hold the same pages byte for
// byte.
func samePages(t *testing.T, a, b *store.Disk) {
	t.Helper()
	if a.PageCount() != b.PageCount() {
		t.Fatalf("harness disk has %d pages, facade disk %d", a.PageCount(), b.PageCount())
	}
	for id := 0; id < a.PageCount(); id++ {
		pa, err := a.RawPage(store.PageID(id))
		if err != nil {
			t.Fatal(err)
		}
		pb, err := b.RawPage(store.PageID(id))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pa, pb) {
			t.Fatalf("page %d differs between the harness and the facade", id)
		}
	}
}

// TestHarnessBuildsWhatOpenBuilds holds the paper harness and the facade
// to one construction path: for six kinds, one-at-a-time and bulk, at
// compression 0 and 1, the index the harness builds over a map has the
// size, persist metadata and disk pages of the one Open builds from a
// loop of Add (or one AddBatch on an empty database) over the same
// segments.
func TestHarnessBuildsWhatOpenBuilds(t *testing.T) {
	m, err := tiger.Generate(tiger.Spec{
		Name: "mini-suburban", Kind: tiger.Suburban, Seed: 12,
		Lattice: 16, SubdivMin: 3, SubdivMax: 5, DeleteFrac: 0.12,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range allKinds() {
		for _, bulk := range []bool{false, true} {
			for _, level := range []int{0, 1} {
				t.Run(fmt.Sprintf("%s/bulk=%v/compression=%d", kind.Label(), bulk, level), func(t *testing.T) {
					cfg := kinds.DefaultConfig()
					cfg.PageCompression = level
					build := harness.Build
					if bulk {
						build = harness.BuildBulk
					}
					ix, _, err := build(kind, m, cfg)
					if err != nil {
						t.Fatal(err)
					}

					db, err := Open(kind, WithPageCompression(level))
					if err != nil {
						t.Fatal(err)
					}
					if bulk {
						_, err = db.AddBatch(m.Segments)
					} else {
						for _, s := range m.Segments {
							if _, err = db.Add(s); err != nil {
								break
							}
						}
					}
					if err != nil {
						t.Fatal(err)
					}

					if got, want := ix.SizeBytes(), db.index.SizeBytes(); got != want {
						t.Errorf("SizeBytes: harness %d, facade %d", got, want)
					}
					if got, want := ix.(kinds.Index).PersistMeta(), db.index.PersistMeta(); !slices.Equal(got, want) {
						t.Errorf("PersistMeta: harness %v, facade %v", got, want)
					}
					pool := indexPool(t, ix)
					if err := pool.Flush(); err != nil {
						t.Fatal(err)
					}
					if err := db.pool.Flush(); err != nil {
						t.Fatal(err)
					}
					samePages(t, pool.Disk(), db.pool.Disk())
				})
			}
		}
	}
}
