package seg

import (
	"math/rand"
	"testing"
)

// TestSeenMatchesMap plays random add/has streams against a map: ids 0,
// 63, 64 and the other word boundaries, repeated adds, a release after a
// 50,000-id set followed by many small sets, and ids past the bound,
// which must never be recorded nor grow the bitmap.
func TestSeenMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	play := func(n, ops int, ids func() ID) {
		t.Helper()
		s := AcquireSeen(n)
		defer ReleaseSeen(s)
		words := len(s.bits)
		if words != (n+63)/64 {
			t.Fatalf("AcquireSeen(%d) covers %d words", n, words)
		}
		oracle := make(map[ID]struct{})
		for i := 0; i < ops; i++ {
			id := ids()
			_, want := oracle[id]
			if got := s.Has(id); got != want {
				t.Fatalf("bound %d: Has(%d) = %v before add, map says %v", n, id, got, want)
			}
			s.Add(id)
			if int(id) < 64*words {
				oracle[id] = struct{}{}
			}
			if _, want := oracle[id]; s.Has(id) != want {
				t.Fatalf("bound %d: Has(%d) = %v after add, map says %v", n, id, !want, want)
			}
		}
		if len(s.bits) != words {
			t.Fatalf("bound %d: bitmap grew from %d to %d words", n, words, len(s.bits))
		}
		for id := ID(0); int(id) < 64*words; id++ {
			if _, want := oracle[id]; s.Has(id) != want {
				t.Fatalf("bound %d: Has(%d) = %v at the end, map says %v", n, id, !want, want)
			}
		}
	}
	edges := []ID{0, 1, 62, 63, 64, 65, 127, 128, 191, 192}
	play(200, 500, func() ID {
		if rng.Intn(2) == 0 {
			return edges[rng.Intn(len(edges))]
		}
		return ID(rng.Intn(200))
	})
	// A large set, then many small ones: each must start empty although
	// the pool hands back the large set's bitmap.
	play(50000, 200000, func() ID { return ID(rng.Intn(50000)) })
	for i := 0; i < 500; i++ {
		n := 1 + rng.Intn(60000)
		play(n, 20, func() ID { return ID(rng.Intn(n)) })
	}
	// Ids past the bound: corrupt pointers up to the largest id.
	play(100, 300, func() ID {
		switch rng.Intn(3) {
		case 0:
			return ^ID(0) - ID(rng.Intn(1000))
		case 1:
			return ID(128 + rng.Intn(1<<20))
		}
		return ID(rng.Intn(128))
	})
}
