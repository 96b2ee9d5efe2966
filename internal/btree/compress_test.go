package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
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
	if size := encodedSize(imageOf(n, 8)); size > len(data) {
		t.Fatalf("test node too large: %d bytes", size)
	}
	writeCompressedLeaf(data, imageOf(n, 8))
	if data[1]&flagPackedValues == 0 {
		t.Fatal("world-domain values not packed")
	}
	got, err := decodeLeaf(data, 8)
	if err != nil {
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
	writeCompressedLeaf(data, imageOf(n, 8))
	if data[1]&flagPackedValues != 0 {
		t.Fatal("out-of-domain values marked packed")
	}
	got, err := decodeLeaf(data, 8)
	if err != nil {
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
	writeCompressedLeaf(good, imageOf(n, 8))
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
		if _, err := decodeLeaf(page, 8); !errors.Is(err, store.ErrBadPage) {
			t.Errorf("%s: err = %v, want ErrBadPage", name, err)
		}
	}
}

// refReadCompressedLeaf is the reference decoder of the v3 leaf: the
// byte-at-a-time binary.Uvarint loop that readCompressedLeafInto ran
// before it decoded a word at a time, with the same checks in the same
// order. The differential tests below hold the two to one answer.
func refReadCompressedLeaf(data []byte, valSize int) (*node, error) {
	bad := func(what string) (*node, error) { return nil, fmt.Errorf("%s: %w", what, store.ErrBadPage) }
	vsize, packed := valSize, data[1]&flagPackedValues != 0
	if data[1]&^byte(flagPackedValues) != 0 || packed && valSize != 8 {
		return bad("flags")
	}
	if packed {
		vsize = packedValueSize
	}
	count := int(binary.LittleEndian.Uint16(data[2:]))
	if count*(1+vsize) > len(data)-headerSize {
		return bad("count")
	}
	n := &node{leaf: true, next: store.PageID(binary.LittleEndian.Uint32(data[4:])), keys: make([]uint64, count)}
	off := headerSize
	for i := range n.keys {
		v, vn := binary.Uvarint(data[off:])
		if vn <= 0 {
			return bad("varint")
		}
		off += vn
		if i > 0 {
			if v == 0 || n.keys[i-1]+v < v {
				return bad("delta")
			}
			v += n.keys[i-1]
		}
		n.keys[i] = v
	}
	if off+count*vsize > len(data) {
		return bad("values")
	}
	n.vals = make([]byte, count*valSize)
	for i := 0; i < count && valSize > 0; i++ {
		if packed {
			getPacked14(n.vals[i*valSize:], data[off:])
		} else {
			copy(n.vals[i*valSize:], data[off:off+valSize])
		}
		off += vsize
	}
	return n, nil
}

// imageOf lays leaf n out as a v1 image, the form writeCompressedLeaf
// encodes.
func imageOf(n *node, valSize int) page {
	p := page{make([]byte, headerSize+len(n.keys)*(8+valSize)), 8 + valSize}
	p.data[0] = 1
	p.setNext(n.next)
	for i, k := range n.keys {
		putEntry(p.insertAt(i), k, n.val(i, valSize))
	}
	return p
}

// decodeLeaf decodes a v3 leaf with expandLeaf and returns its entries
// as a node.
func decodeLeaf(data []byte, valSize int) (*node, error) {
	p, err := expandLeaf(data, valSize, nil)
	if err != nil {
		return nil, err
	}
	n := &node{leaf: true, next: p.next(), keys: make([]uint64, p.count())}
	for i := range n.keys {
		n.keys[i] = p.key(i)
		n.vals = append(n.vals, p.val(i)...)
	}
	return n, nil
}

// checkAgainstReference decodes a v3 leaf with both decoders and requires
// one answer: the same keys, sibling and values, or ErrBadPage from both.
func checkAgainstReference(t *testing.T, data []byte, valSize int) (*node, error) {
	t.Helper()
	got, err := decodeLeaf(data, valSize)
	want, refErr := refReadCompressedLeaf(data, valSize)
	if (err == nil) != (refErr == nil) || err != nil && !errors.Is(err, store.ErrBadPage) {
		t.Fatalf("decoder err %v, reference err %v", err, refErr)
	}
	if err == nil && (!got.leaf || got.next != want.next || !slices.Equal(got.keys, want.keys) || !bytes.Equal(got.vals, want.vals)) {
		t.Fatalf("decoder and reference disagree:\n got %+v\nwant %+v", got, want)
	}
	return got, err
}

// TestUvarintWordMatchesUvarint holds the word decoder to binary.Uvarint's
// (value, length) contract on random varints of every length, canonical
// and padded, followed by random bytes; it may only decline (n == 0) a
// varint that does not end within the word.
func TestUvarintWordMatchesUvarint(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 1<<18; i++ {
		var buf [18]byte
		rng.Read(buf[:])
		vn := binary.PutUvarint(buf[:], rng.Uint64()>>uint(rng.Intn(64)))
		if pad := rng.Intn(4); pad > 0 && vn+pad <= 8 { // non-canonical: trailing zero groups
			buf[vn-1] |= 0x80
			for ; pad > 1; pad-- {
				buf[vn] = 0x80
				vn++
			}
			buf[vn] = 0
		}
		want, wantN := binary.Uvarint(buf[:])
		got, n := uvarintWord(binary.LittleEndian.Uint64(buf[:]))
		if wantN >= 1 && wantN <= 8 && (n != wantN || got != want) || (wantN < 1 || wantN > 8) && n != 0 {
			t.Fatalf("%x: uvarintWord = (%d, %d), binary.Uvarint = (%d, %d)", buf[:10], got, n, want, wantN)
		}
	}
}

// TestCompressedLeafDecoderEdges pins the places where the word decoder
// hands over to binary.Uvarint, and the checks that follow a key.
func TestCompressedLeafDecoderEdges(t *testing.T) {
	// leaf encodes keys and vals and returns exactly the encoded bytes
	// plus pad zero bytes.
	leaf := func(valSize, pad int, keys []uint64, vals []byte) []byte {
		p := imageOf(&node{leaf: true, next: 9, keys: keys, vals: vals}, valSize)
		data := make([]byte, encodedSize(p)+pad)
		writeCompressedLeaf(data, p)
		return data
	}
	// withDelta is keys 5 and 6 with the second delta overwritten by hand.
	withDelta := func(delta ...byte) []byte {
		data := leaf(0, 24, []uint64{5, 6}, nil)
		copy(data[headerSize+1:], delta)
		return data
	}
	vals := func(n int, word uint16) []byte {
		v := make([]byte, 8*n)
		for i := 0; i < len(v); i += 2 {
			binary.LittleEndian.PutUint16(v[i:], word)
		}
		return v
	}
	const big = uint64(1) << 63
	far := []uint64{1 << 40, 1 << 41} // six bytes each
	cases := []struct {
		name    string
		data    []byte
		valSize int
		keys    []uint64
		bad     string // corrupt pages: which check must refuse them
	}{
		{"page ends with the last key", leaf(0, 0, []uint64{7, 8, 1 << 40}, nil), 0, []uint64{7, 8, 1 << 40}, ""},
		{"seven bytes in the whole page", leaf(0, 5, []uint64{300}, nil), 0, []uint64{300}, ""},
		{"8-byte delta", leaf(0, 8, []uint64{1, 1 + 1<<55}, nil), 0, []uint64{1, 1 + 1<<55}, ""},
		{"9-byte first key", leaf(0, 8, []uint64{1 << 56, 1<<56 + 1}, nil), 0, []uint64{1 << 56, 1<<56 + 1}, ""},
		{"10-byte first key", leaf(0, 8, []uint64{big, big + 200}, nil), 0, []uint64{big, big + 200}, ""},
		{"padded delta", withDelta(0x81, 0x80, 0x00), 0, []uint64{5, 6}, ""},
		{"packed values", leaf(8, 0, far, vals(2, 1<<14-1)), 8, far, ""},
		{"verbatim values", leaf(8, 0, far, vals(2, 1<<14)), 8, far, ""},
		{"truncated inside a key", leaf(0, 0, []uint64{7, 1 << 40}, nil)[:headerSize+4], 0, nil, "bad varint"},
		{"varint over 64 bits", withDelta(0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02), 0, nil, "bad varint"},
		{"delta wraps the key", func() []byte {
			data := leaf(0, 16, []uint64{big, big + 1}, nil)
			binary.PutUvarint(data[headerSize+10:], big)
			return data
		}(), 0, nil, "key delta overflow"},
		{"zero delta", withDelta(0x00), 0, nil, "zero key delta"},
		{"values overrun", leaf(8, 0, far, vals(2, 1))[:headerSize+12+6], 8, nil, "values overrun"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := checkAgainstReference(t, c.data, c.valSize)
			if c.bad != "" {
				if err == nil || !strings.Contains(err.Error(), c.bad) {
					t.Fatalf("err %v, want the %q check", err, c.bad)
				}
			} else if err != nil || !slices.Equal(got.keys, c.keys) {
				t.Fatalf("keys %v err %v, want %v", got, err, c.keys)
			}
		})
	}
}

func FuzzDecodeCompressedLeaf(f *testing.F) {
	n := &node{leaf: true, next: 7, keys: []uint64{10, 300, 301, 1 << 40}}
	n.vals = make([]byte, 32)
	for _, valSize := range []int{0, 8} {
		page := make([]byte, 256)
		writeCompressedLeaf(page, imageOf(n, valSize))
		f.Add(page, valSize)
	}
	f.Add([]byte{2, 1, 0xFF, 0xFF, 0, 0, 0, 0, 1}, 8)
	f.Fuzz(func(t *testing.T, data []byte, valSize int) {
		if len(data) < headerSize || valSize < 0 || valSize > len(data)/4 {
			return
		}
		if data[0] != typeCompressedLeaf {
			DecodePage(data, valSize) // classic pages: must not panic
			return
		}
		got, err := checkAgainstReference(t, data, valSize)
		if err != nil {
			return
		}
		for i := 1; i < len(got.keys); i++ {
			if got.keys[i] <= got.keys[i-1] {
				t.Fatalf("decoded keys not strictly increasing at %d", i)
			}
		}
	})
}

// TestMergedSizeMatchesEncodedSize holds mergedSize, which decides every
// compressed-leaf merge, to the encoded size of the merged leaf itself
// and to the reference's, across value sizes 0 and 8 and every mix of
// packable and unpackable sides.
func TestMergedSizeMatchesEncodedSize(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	leaf := func(from uint64, n, valSize int, packable bool) *node {
		l := &node{leaf: true, next: store.NilPage}
		for i := 0; i < n; i++ {
			from += uint64(1 + rng.Intn(1<<uint(rng.Intn(40))))
			l.keys = append(l.keys, from)
			if valSize > 0 {
				v := randVal(rng)
				if !packable && i == n/2 {
					binary.LittleEndian.PutUint16(v[2:], 1<<15)
				}
				l.vals = append(l.vals, v...)
			}
		}
		return l
	}
	for i := 0; i < 2000; i++ {
		valSize := 8 * rng.Intn(2)
		a := leaf(0, rng.Intn(40), valSize, rng.Intn(2) == 0)
		last := uint64(0)
		if len(a.keys) > 0 {
			last = a.keys[len(a.keys)-1]
		}
		b := leaf(last, rng.Intn(40), valSize, rng.Intn(2) == 0)
		merged := &node{leaf: true, keys: append(slices.Clone(a.keys), b.keys...), vals: append(slices.Clone(a.vals), b.vals...)}
		got := mergedSize(imageOf(a, valSize), imageOf(b, valSize))
		if want := encodedSize(imageOf(merged, valSize)); got != want {
			t.Fatalf("case %d: mergedSize %d, encoded merged leaf %d", i, got, want)
		}
		if ref := refMergedLeafSize(a, b, valSize); got != ref {
			t.Fatalf("case %d: mergedSize %d, reference %d", i, got, ref)
		}
	}
}

// TestMixedLeafFormats restores a tree over an image whose leaves are in
// the other format and keeps writing. A compressed tree takes classic
// leaves and compresses them as it writes them; an uncompressed tree
// rewrites a compressed leaf in the classic layout, or refuses one
// holding more entries than a classic leaf can, changing nothing.
func TestMixedLeafFormats(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, c := range []struct{ from, keys int }{{0, 3000}, {1, 40}} {
		pool := newCompressedPool(t)
		tr, err := NewWithOptions(pool, 8, c.from)
		if err != nil {
			t.Fatal(err)
		}
		live := map[uint64]bool{}
		for i := 0; i < c.keys; i++ {
			k := uint64(i) * 7
			if err := tr.InsertValue(k, randVal(rng)); err != nil {
				t.Fatal(err)
			}
			live[k] = true
		}
		re, err := RestoreWithOptions(pool, 8, 1-c.from, tr.PersistMeta())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2000; i++ {
			k := uint64(rng.Intn(3*c.keys+3000)) * 7
			if live[k] {
				if err := re.Delete(k); err != nil {
					t.Fatalf("from level %d: delete %d: %v", c.from, k, err)
				}
				delete(live, k)
			} else {
				if err := re.InsertValue(k, randVal(rng)); err != nil {
					t.Fatalf("from level %d: insert %d: %v", c.from, k, err)
				}
				live[k] = true
			}
		}
		if err := re.Validate(); err != nil {
			t.Fatalf("from level %d: %v", c.from, err)
		}
		n := 0
		if err := re.Scan(0, ^uint64(0), func(k uint64) bool { n++; return live[k] }, nil); err != nil || n != len(live) {
			t.Fatalf("from level %d: scan saw %d keys (err %v), want %d", c.from, n, err, len(live))
		}
	}
	// A compressed leaf of 120 entries cannot become a 63-entry classic one.
	pool := newCompressedPool(t)
	tr, err := NewWithOptions(pool, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 120; k++ {
		if err := tr.InsertValue(k, randVal(rng)); err != nil {
			t.Fatal(err)
		}
	}
	re, err := RestoreWithOptions(pool, 8, 0, tr.PersistMeta())
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Flush(); err != nil {
		t.Fatal(err)
	}
	before, _ := pool.Disk().RawPage(re.root)
	if err := re.InsertValue(500, nil); !errors.Is(err, store.ErrBadPage) {
		t.Fatalf("insert into an oversized compressed leaf: %v, want ErrBadPage", err)
	}
	if err := pool.Flush(); err != nil {
		t.Fatal(err)
	}
	if after, _ := pool.Disk().RawPage(re.root); !bytes.Equal(before, after) || pool.Pinned() != 0 {
		t.Fatal("a refused write changed the page or left a pin")
	}
}
