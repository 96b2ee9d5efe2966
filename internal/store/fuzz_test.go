package store

import (
	"bytes"
	"testing"
)

// FuzzReadDiskFrom feeds arbitrary bytes to the disk-image reader. The
// property: ReadDiskFrom never panics and never over-allocates; it either
// returns a structurally sound disk or an error.
func FuzzReadDiskFrom(f *testing.F) {
	// Seed with valid images of a few shapes so the fuzzer starts from
	// parseable inputs.
	for _, shape := range []struct{ pageSize, pages, frees int }{
		{32, 0, 0},
		{32, 3, 1},
		{64, 8, 3},
	} {
		d := NewDisk(shape.pageSize)
		p := NewPool(d, 4)
		var ids []PageID
		for i := 0; i < shape.pages; i++ {
			id, data, err := p.Allocate()
			if err != nil {
				f.Fatal(err)
			}
			fillSeq(data, byte(i))
			p.Unpin(id, true)
			ids = append(ids, id)
		}
		for i := 0; i < shape.frees; i++ {
			p.Free(ids[i])
		}
		if err := p.Flush(); err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := d.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// One more seed whose page contents resemble v3 compressed index
	// pages (type byte 2/3 plus mode/flags, count, and packed payload
	// bytes). The disk layer treats page contents as opaque, but seeding
	// realistic compressed headers steers mutation toward the inputs the
	// index decoders see after a disk image round trip. Hand-written —
	// store must not import the index packages.
	{
		d := NewDisk(64)
		p := NewPool(d, 4)
		for i, hdr := range [][]byte{
			{2, 1, 3, 0, 0x10, 0x00, 0x20, 0x00, 0xff, 0x3f, 0xff, 0x3f}, // compressed internal, u16 lanes
			{3, 2, 5, 0, 0x00, 0x00, 0x00, 0x00, 0xff, 0x3f, 0xff, 0x3f}, // compressed leaf, lane mode 2 (a removed format: decoders reject it)
			{2, 1, 4, 0, 7, 0, 0, 0, 0x81, 0x02, 0x83, 0x04},             // delta leaf: flags, count, sibling, varints
		} {
			id, data, err := p.Allocate()
			if err != nil {
				f.Fatal(err)
			}
			fillSeq(data, byte(0x40+i))
			copy(data, hdr)
			p.Unpin(id, true)
		}
		if err := p.Flush(); err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := d.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ReadDiskFrom(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A disk the reader accepted must pass its own self-checks.
		if err := d.CheckFreeList(); err != nil {
			t.Fatalf("accepted image fails CheckFreeList: %v", err)
		}
		if err := d.VerifyChecksums(); err != nil {
			t.Fatalf("accepted image fails VerifyChecksums: %v", err)
		}
		// And round-trip byte-identically.
		var buf bytes.Buffer
		if _, err := d.WriteTo(&buf); err != nil {
			t.Fatalf("rewrite of accepted image: %v", err)
		}
		d2, err := ReadDiskFrom(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("reload of rewritten image: %v", err)
		}
		if d2.PageCount() != d.PageCount() || d2.PageSize() != d.PageSize() {
			t.Fatalf("round-trip changed shape: %d/%d pages, %d/%d page size",
				d.PageCount(), d2.PageCount(), d.PageSize(), d2.PageSize())
		}
	})
}
