package seg

import (
	"math/rand"
	"slices"
	"testing"

	"segdb/internal/geom"
)

// TestAppendLiveAscending plays random kills, word boundaries included,
// against a map over a table that keeps growing, and requires AppendLive
// to list exactly the unkilled slots in ascending order. Live is false
// past the table, and a table nobody kills from carries no bitmap.
func TestAppendLiveAscending(t *testing.T) {
	tab := NewTable(1024, 4)
	dead := make(map[ID]bool)
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 8; round++ {
		for i := 0; i < 100; i++ {
			if _, err := tab.Append(geom.Seg(int32(i), 0, int32(i), 9)); err != nil {
				t.Fatal(err)
			}
		}
		if round == 0 && tab.dead != nil {
			t.Fatalf("a table with no kills holds a %d-word bitmap", len(tab.dead))
		}
		if tab.Live(ID(tab.Len())) {
			t.Fatalf("Live(%d) past a %d-slot table", tab.Len(), tab.Len())
		}
		kills := []ID{0, 63, 64, 127, ID(tab.Len() - 1)}
		for i := 0; i < 20; i++ {
			kills = append(kills, ID(rng.Intn(tab.Len())))
		}
		for _, id := range kills {
			tab.Kill(id)
			dead[id] = true
		}
		var want []ID
		for id := ID(0); int(id) < tab.Len(); id++ {
			if got := tab.Live(id); got == dead[id] {
				t.Fatalf("round %d: Live(%d) = %v, killed %v", round, id, got, dead[id])
			}
			if !dead[id] {
				want = append(want, id)
			}
		}
		got := tab.AppendLive([]ID{NilID})
		if got[0] != NilID || !slices.Equal(got[1:], want) {
			t.Fatalf("round %d: AppendLive lists %d ids, want %d after the prefix", round, len(got)-1, len(want))
		}
	}
}
