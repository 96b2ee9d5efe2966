package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Write-ahead log file format. The file opens with an 8-byte magic and
// then holds a sequence of CRC-framed, length-prefixed records:
//
//	[u32 payload length][u32 CRC32(payload)][payload]
//
// A payload starts with a one-byte record type. The log is logical: an op
// record names one user operation (an add with its segment ID and
// endpoints, or a delete with its ID), and a commit record seals the op
// records before it into an atomic transaction. Recovery re-executes the
// committed operations over the checkpoint image. Replay is prefix-valid:
// the reader returns committed transactions in order and discards the
// tail at the first frame that is truncated, fails its CRC or is not an
// op or commit record — exactly the bytes a torn write at power loss
// leaves behind.
//
// Each record is appended with a single Write call, so a MemWALFS crash
// tears at most one record — the case the prefix rule is built for.
const (
	walRecPage   = 1 // the page-image record of the v1 format; see AppendPage
	walRecCommit = 2
	walRecStaged = 3 // the op record (named for the mode that introduced it)

	// walFrameHead is the byte size of the [length][CRC] frame prefix.
	walFrameHead = 8

	// Payload sizes: type, delete flag, ID, four coordinates; type,
	// epoch, seq, table count.
	walOpSize     = 1 + 1 + 4 + 16
	walCommitSize = 1 + 8 + 8 + 4
)

// walMagic identifies a segdb write-ahead log ("SDBWAL" + version).
// Version 01 logged page images; its logs are refused by name.
var (
	walMagic   = [8]byte{'S', 'D', 'B', 'W', 'A', 'L', '0', '2'}
	walMagicV1 = [8]byte{'S', 'D', 'B', 'W', 'A', 'L', '0', '1'}
)

// WALCommit seals a logged transaction. Epoch is the checkpoint epoch
// the transaction belongs to: recovery replays only commits whose epoch
// is greater than the checkpoint's, so a log not yet truncated after a
// checkpoint cannot replay stale operations onto the newer image. Seq is
// the count of user operations applied when the commit was cut, which
// the recovery report surfaces. TableCount is the segment-table length
// after the transaction, which replay checks its re-execution against.
type WALCommit struct {
	Epoch      uint64
	Seq        uint64
	TableCount uint32
}

// WALStagedOp is one logged operation, in either write mode: an add
// carries the segment ID it was assigned and its endpoint coordinates; a
// delete carries only the ID. It keeps the name of staged mode, which
// introduced the record, because benchmark/micro.go uses it.
type WALStagedOp struct {
	Del    bool
	ID     uint32
	Coords [4]int32 // x1, y1, x2, y2 (adds only)
}

// WALTxn is one committed transaction: the operations logged before the
// commit record, plus the commit itself.
type WALTxn struct {
	Ops    []WALStagedOp
	Commit WALCommit
}

// WAL is an open write-ahead log. Appends are buffered into one frame
// and handed to the file as a single Write; AppendCommit additionally
// Syncs, making the transaction durable before the caller's mutation
// returns. Not safe for concurrent use — the facade serializes structural
// writes already.
type WAL struct {
	f    WALFile
	size int64
	buf  []byte
}

// CreateWAL creates (truncating) the named log file and writes its
// magic.
func CreateWAL(fs WALFS, name string) (*WAL, error) {
	f, err := fs.Create(name)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(walMagic[:]); err != nil {
		f.Close()
		return nil, err
	}
	return &WAL{f: f, size: int64(len(walMagic))}, nil
}

// Size returns the bytes written so far, including the magic.
func (w *WAL) Size() int64 { return w.size }

// Close releases the log file.
func (w *WAL) Close() error { return w.f.Close() }

// appendRecord frames the payload staged in w.buf[walFrameHead:] and
// appends it with one Write call.
func (w *WAL) appendRecord() error {
	payload := w.buf[walFrameHead:]
	binary.LittleEndian.PutUint32(w.buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(w.buf[4:8], crc32.ChecksumIEEE(payload))
	n, err := w.f.Write(w.buf)
	w.size += int64(n)
	return err
}

// AppendPage appends a v1 page-image record, which ReadWAL treats as a
// torn tail. No database writes one: it stays only because
// benchmark/micro.go still times it, and goes when that harness changes.
func (w *WAL) AppendPage(disk uint8, page PageID, data []byte) error {
	w.buf = w.buf[:0]
	w.buf = append(w.buf, make([]byte, walFrameHead)...)
	w.buf = append(w.buf, walRecPage, disk)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(page))
	w.buf = append(w.buf, data...)
	return w.appendRecord()
}

// AppendStaged logs one operation of either write mode. It is sealed by
// the next commit; replay discards an unsealed one.
func (w *WAL) AppendStaged(op WALStagedOp) error {
	w.buf = w.buf[:0]
	w.buf = append(w.buf, make([]byte, walFrameHead)...)
	del := byte(0)
	if op.Del {
		del = 1
	}
	w.buf = append(w.buf, walRecStaged, del)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, op.ID)
	for _, c := range op.Coords {
		w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(c))
	}
	return w.appendRecord()
}

// AppendCommit logs the commit record sealing the transaction and syncs
// the file: when it returns nil, the transaction is durable.
func (w *WAL) AppendCommit(c WALCommit) error {
	w.buf = w.buf[:0]
	w.buf = append(w.buf, make([]byte, walFrameHead)...)
	w.buf = append(w.buf, walRecCommit)
	w.buf = binary.LittleEndian.AppendUint64(w.buf, c.Epoch)
	w.buf = binary.LittleEndian.AppendUint64(w.buf, c.Seq)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, c.TableCount)
	if err := w.appendRecord(); err != nil {
		return err
	}
	return w.f.Sync()
}

// ReadWAL parses a log image and returns the committed transactions
// whose commit epoch is greater than afterEpoch, in log order. torn
// reports that the log had a discarded tail: a truncated, CRC-failed or
// unknown frame (the torn final write of a crash), or trailing op
// records never sealed by a commit. Neither is an error — prefix-valid
// replay is the contract — so err is non-nil only when the data is not
// a current WAL at all (bad magic, or a v1 page-image log).
func ReadWAL(data []byte, afterEpoch uint64) (txns []*WALTxn, torn bool, err error) {
	if len(data) >= len(walMagicV1) && [8]byte(data[:8]) == walMagicV1 {
		return nil, false, fmt.Errorf("store: write-ahead log has the page-image format %q, which this version does not replay; recover it with the release that wrote it and checkpoint", data[:8])
	}
	if len(data) < len(walMagic) || [8]byte(data[:8]) != walMagic {
		return nil, false, fmt.Errorf("store: not a WAL (magic %q)", data[:min(len(data), 8)])
	}
	rest := data[len(walMagic):]
	var pending []WALStagedOp
	for len(rest) > 0 {
		if len(rest) < walFrameHead {
			return txns, true, nil
		}
		n := binary.LittleEndian.Uint32(rest[0:4])
		sum := binary.LittleEndian.Uint32(rest[4:8])
		if int(n) > len(rest)-walFrameHead {
			return txns, true, nil
		}
		payload := rest[walFrameHead : walFrameHead+int(n)]
		if crc32.ChecksumIEEE(payload) != sum {
			return txns, true, nil
		}
		rest = rest[walFrameHead+int(n):]
		switch {
		case len(payload) == walOpSize && payload[0] == walRecStaged:
			op := WALStagedOp{
				Del: payload[1] != 0,
				ID:  binary.LittleEndian.Uint32(payload[2:6]),
			}
			for i := range op.Coords {
				op.Coords[i] = int32(binary.LittleEndian.Uint32(payload[6+4*i:]))
			}
			pending = append(pending, op)
		case len(payload) == walCommitSize && payload[0] == walRecCommit:
			c := WALCommit{
				Epoch:      binary.LittleEndian.Uint64(payload[1:9]),
				Seq:        binary.LittleEndian.Uint64(payload[9:17]),
				TableCount: binary.LittleEndian.Uint32(payload[17:21]),
			}
			if c.Epoch > afterEpoch {
				txns = append(txns, &WALTxn{Ops: pending, Commit: c})
			}
			pending = nil
		default:
			return txns, true, nil
		}
	}
	return txns, len(pending) > 0, nil
}
