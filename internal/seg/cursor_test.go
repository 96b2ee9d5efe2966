package seg

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"segdb/internal/geom"
	"segdb/internal/obs"
	"segdb/internal/store"
)

func randSeg(rng *rand.Rand) geom.Segment {
	return geom.Seg(rng.Int31n(geom.WorldSize), rng.Int31n(geom.WorldSize),
		rng.Int31n(geom.WorldSize), rng.Int31n(geom.WorldSize))
}

// TestCursorMatchesOneShot drives two identical tables with one stream of
// fetches — runs on one page, jumps, ids past the end — one through a
// cursor and one through the one-shot GetObs, with appends, one-shot
// fetches (what a traversal nested in a visitor makes) and cursor
// reopenings in between. Wherever a cursor has just closed, every counter
// of the two tables and of their Ops must be equal, and so must the pages
// resident in their pools: a cursor is an accounting-exact stand-in for
// the fetches it replaces, down to a one-frame pool.
func TestCursorMatchesOneShot(t *testing.T) {
	const pageSize = 256 // 16 records a page
	for _, pages := range []int{1, 2, 3, 16} {
		t.Run(fmt.Sprintf("pool%d", pages), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(pages)))
			viaCursor, oneShot := NewTable(pageSize, pages), NewTable(pageSize, pages)
			appendBoth := func() {
				s := randSeg(rng)
				a, errA := viaCursor.Append(s)
				b, errB := oneShot.Append(s)
				if errA != nil || errB != nil || a != b {
					t.Fatalf("append: %d/%v, %d/%v", a, errA, b, errB)
				}
			}
			for i := 0; i < 500; i++ {
				appendBoth()
			}
			oc := obs.Begin(context.Background(), nil, obs.QueryInfo{})
			oo := obs.Begin(context.Background(), nil, obs.QueryInfo{})
			cur := viaCursor.Cursor(oc)
			compare := func(step int) {
				t.Helper()
				cur.Close()
				cs, os := viaCursor.DiskStats(), oneShot.DiskStats()
				if cs != os {
					t.Fatalf("step %d: disk stats %+v via cursor, %+v one-shot", step, cs, os)
				}
				if c, o := viaCursor.Comparisons(), oneShot.Comparisons(); c != o {
					t.Fatalf("step %d: comparisons %d via cursor, %d one-shot", step, c, o)
				}
				sc, so := oc.Stats(), oo.Stats()
				sc.Wall, so.Wall = 0, 0
				if sc != so {
					t.Fatalf("step %d: op stats %+v via cursor, %+v one-shot", step, sc, so)
				}
				for p := 0; p*16 < viaCursor.Len(); p++ {
					id := store.PageID(p)
					if c, o := viaCursor.pool.Resident(id), oneShot.pool.Resident(id); c != o {
						t.Fatalf("step %d: page %d resident %v via cursor, %v one-shot", step, p, c, o)
					}
				}
				cur = viaCursor.Cursor(oc)
			}
			fetch := func(id ID) {
				t.Helper()
				sc, errC := cur.Get(id)
				so, errO := oneShot.GetObs(id, oo)
				if sc != so || (errC == nil) != (errO == nil) || (errC != nil && errC.Error() != errO.Error()) {
					t.Fatalf("fetch %d: %v/%v via cursor, %v/%v one-shot", id, sc, errC, so, errO)
				}
			}
			for step := 0; step < 4000; step++ {
				n := viaCursor.Len()
				switch r := rng.Intn(20); {
				case r < 10: // a run on one page, the tail page included
					page := rng.Intn((n + 15) / 16)
					for k := rng.Intn(6) + 1; k > 0; k-- {
						if id := page*16 + rng.Intn(16); id < n {
							fetch(ID(id))
						}
					}
				case r < 14:
					fetch(ID(rng.Intn(n)))
				case r < 15:
					fetch(ID(n + rng.Intn(3)))
				case r < 17: // an append under the open cursor, then the new id
					appendBoth()
					fetch(ID(n))
				case r < 19: // a one-shot fetch under the open cursor
					id := ID(rng.Intn(n))
					sc, errC := viaCursor.GetObs(id, oc)
					so, errO := oneShot.GetObs(id, oo)
					if sc != so || errC != nil || errO != nil {
						t.Fatalf("one-shot %d: %v/%v, %v/%v", id, sc, errC, so, errO)
					}
				default:
					compare(step)
				}
			}
			compare(-1)
			cur.Close()
		})
	}
}

// BenchmarkSegFetch prices one fetch of a resident record: through the
// one-shot GetObs, through a cursor whose page copy holds it, and through
// a cursor that changes page on every fetch (the copy's price with none
// of its benefit), at the default page size and at 4 KB.
func BenchmarkSegFetch(b *testing.B) {
	for _, pageSize := range []int{1024, 4096} {
		perPage := pageSize / recordSize
		tab := NewTable(pageSize, 64)
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 32*perPage; i++ {
			if _, err := tab.Append(randSeg(rng)); err != nil {
				b.Fatal(err)
			}
		}
		// 1024 ids on one page, and 1024 that never stay on a page.
		var same, jumps [1024]ID
		for i := range same {
			same[i] = ID(3*perPage + rng.Intn(perPage))
			jumps[i] = ID(i%32*perPage + rng.Intn(perPage))
		}
		var sink geom.Segment
		b.Run(fmt.Sprintf("page%d/oneshot", pageSize), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink, _ = tab.GetObs(same[i%len(same)], nil)
			}
		})
		for _, c := range []struct {
			name string
			ids  *[1024]ID
		}{{"same-page", &same}, {"page-change", &jumps}} {
			b.Run(fmt.Sprintf("page%d/cursor-%s", pageSize, c.name), func(b *testing.B) {
				cur := tab.Cursor(nil)
				defer cur.Close()
				for i := 0; i < b.N; i++ {
					sink, _ = cur.Get(c.ids[i%len(c.ids)])
				}
			})
		}
		_ = sink
	}
}
