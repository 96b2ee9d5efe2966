package segdb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"segdb/internal/grid"
	"segdb/internal/seg"
	"segdb/internal/store"
)

// fileMagic identifies a segdb database file ("SEGDB" + format version).
// Format 003 adds a page-compression word to the header; 002 files (no
// compression word, always level 0) still load. 001 files (no
// checksums) are rejected with a descriptive error.
var (
	fileMagic   = [8]byte{'S', 'E', 'G', 'D', 'B', '0', '0', '3'}
	fileMagicV2 = [8]byte{'S', 'E', 'G', 'D', 'B', '0', '0', '2'}
	fileMagicV1 = [8]byte{'S', 'E', 'G', 'D', 'B', '0', '0', '1'}
)

// maxMetaWords bounds the index metadata length a header may declare: a
// corrupt or hostile file must fail validation before its header fields
// drive any allocation (checkOptions bounds the rest).
const maxMetaWords = 64

// Save serializes the whole database — options, index metadata, the
// segment table's disk image, and the index's disk image — so it can be
// reopened later with Load. Both buffer pools are flushed first; counters
// are not persisted (a reopened database starts cold with zeroed
// statistics, like a fresh process over the same disk).
func (db *DB) Save(w io.Writer) error {
	if err := db.table.Flush(); err != nil {
		return err
	}
	if err := db.pool.Flush(); err != nil {
		return err
	}
	return db.writeSnapshot(w)
}

// writeSnapshot serializes the database's durable state — header, index
// metadata, and both disk images exactly as they stand — without flushing
// either buffer pool. Save flushes and then snapshots; crash harnesses
// snapshot a halted disk directly (unflushed dirty frames are precisely
// the data a crash loses).
func (db *DB) writeSnapshot(w io.Writer) error {
	meta := db.index.PersistMeta()
	o := db.opts
	header := []uint32{
		uint32(db.kind),
		uint32(o.PageSize),
		uint32(o.PoolPages),
		uint32(o.PMRThreshold),
		boolWord(o.PMRStoreMBR),
		uint32(grid.DefaultConfig().CellsPerSide),
		uint32(len(meta)),
		uint32(o.PageCompression),
	}
	// The header and metadata get their own CRC32 (the disk images that
	// follow carry theirs): a bit flip in a config word must not silently
	// restore a differently-parameterized index.
	var hdr bytes.Buffer
	hdr.Write(fileMagic[:])
	for _, v := range header {
		binary.Write(&hdr, binary.LittleEndian, v)
	}
	for _, v := range meta {
		binary.Write(&hdr, binary.LittleEndian, v)
	}
	binary.Write(&hdr, binary.LittleEndian, crc32.ChecksumIEEE(hdr.Bytes()))
	if _, err := w.Write(hdr.Bytes()); err != nil {
		return err
	}
	if err := db.table.WriteSnapshot(w); err != nil {
		return err
	}
	_, err := db.pool.Disk().WriteTo(w)
	return err
}

// Load reopens a database serialized with Save.
func Load(r io.Reader) (*DB, error) {
	var opts Options
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("segdb: reading file magic: %w", err)
	}
	if magic == fileMagicV1 {
		return nil, fmt.Errorf("segdb: file uses the old unchecksummed format %q; re-save with this version", magic[:])
	}
	if magic != fileMagic && magic != fileMagicV2 {
		return nil, fmt.Errorf("segdb: not a segdb file (magic %q)", magic[:])
	}
	// Format 002 headers carry 7 words; 003 appends the page-compression
	// level. Both are covered by the trailing CRC exactly as written.
	headerWords := 8
	if magic == fileMagicV2 {
		headerWords = 7
	}
	header := make([]uint32, headerWords)
	for i := range header {
		if err := binary.Read(r, binary.LittleEndian, &header[i]); err != nil {
			return nil, fmt.Errorf("segdb: reading header: %w", err)
		}
	}
	kind := Kind(header[0])
	opts = Options{
		PageSize:     int(header[1]),
		PoolPages:    int(header[2]),
		PMRThreshold: int(header[3]),
		PMRStoreMBR:  header[4] != 0,
		// Staged ingest is a runtime mode (off after Load); the
		// compaction threshold resolves to its default as in Open.
		CompactThreshold: 4096,
	}
	if headerWords > 7 {
		opts.PageCompression = int(header[7])
	}
	if err := checkOptions(opts); err != nil {
		return nil, fmt.Errorf("segdb: image header: %w", err)
	}
	if cells := grid.DefaultConfig().CellsPerSide; header[5] != uint32(cells) {
		return nil, fmt.Errorf("segdb: image header: grid resolution %d (only %d is supported)", header[5], cells)
	}
	if header[6] > maxMetaWords {
		return nil, fmt.Errorf("segdb: implausible index metadata length %d", header[6])
	}
	if _, err := implOf(kind); err != nil {
		return nil, err
	}
	meta := make([]uint64, header[6])
	for i := range meta {
		if err := binary.Read(r, binary.LittleEndian, &meta[i]); err != nil {
			return nil, fmt.Errorf("segdb: reading index metadata: %w", err)
		}
	}
	var hdr bytes.Buffer
	hdr.Write(magic[:])
	for _, v := range header {
		binary.Write(&hdr, binary.LittleEndian, v)
	}
	for _, v := range meta {
		binary.Write(&hdr, binary.LittleEndian, v)
	}
	var sum uint32
	if err := binary.Read(r, binary.LittleEndian, &sum); err != nil {
		return nil, fmt.Errorf("segdb: reading header checksum: %w", err)
	}
	if got := crc32.ChecksumIEEE(hdr.Bytes()); got != sum {
		return nil, fmt.Errorf("segdb: file header checksum mismatch (file %#08x, computed %#08x): %w", sum, got, store.ErrChecksum)
	}
	table, err := seg.RestoreTable(r, opts.PoolPages)
	if err != nil {
		return nil, err
	}
	disk, err := store.ReadDiskFrom(r)
	if err != nil {
		return nil, err
	}
	if disk.PageSize() != opts.PageSize {
		return nil, fmt.Errorf("segdb: index image page size %d, header says %d", disk.PageSize(), opts.PageSize)
	}
	pool := store.NewPool(disk, opts.PoolPages)
	ix, err := restoreIndex(kind, opts, pool, table, meta)
	if err != nil {
		return nil, err
	}
	return newDB(kind, opts, table, pool, ix), nil
}

func boolWord(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
