package store

import (
	"errors"
	"io/fs"
	"slices"
	"strings"
	"testing"
)

// walAdd builds a deterministic add op record.
func walAdd(id uint32) WALStagedOp {
	c := int32(id)
	return WALStagedOp{ID: id, Coords: [4]int32{c, c + 1, c + 2, c + 3}}
}

// appendTxn logs ops and seals them with a commit at the given epoch.
func appendTxn(t *testing.T, w *WAL, c WALCommit, ops ...WALStagedOp) {
	t.Helper()
	for _, op := range ops {
		if err := w.AppendStaged(op); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.AppendCommit(c); err != nil {
		t.Fatal(err)
	}
}

func TestWALRoundTrip(t *testing.T) {
	mfs := NewMemWALFS()
	w, err := CreateWAL(mfs, "wal.log")
	if err != nil {
		t.Fatal(err)
	}
	c1 := WALCommit{Epoch: 1, Seq: 1, TableCount: 9}
	appendTxn(t, w, c1, walAdd(7), WALStagedOp{Del: true, ID: 3})
	c2 := WALCommit{Epoch: 1, Seq: 2, TableCount: 10}
	appendTxn(t, w, c2, walAdd(9))
	data, err := mfs.ReadFile("wal.log")
	if err != nil {
		t.Fatal(err)
	}
	txns, torn, err := ReadWAL(data, 0)
	if err != nil {
		t.Fatalf("ReadWAL: %v", err)
	}
	if torn {
		t.Error("clean log reported torn")
	}
	if len(txns) != 2 {
		t.Fatalf("got %d transactions, want 2", len(txns))
	}
	if got := txns[0]; !slices.Equal(got.Ops, []WALStagedOp{walAdd(7), {Del: true, ID: 3}}) || got.Commit != c1 {
		t.Errorf("txn 0 = %+v", got)
	}
	if got := txns[1]; !slices.Equal(got.Ops, []WALStagedOp{walAdd(9)}) || got.Commit != c2 {
		t.Errorf("txn 1 = %+v", got)
	}
}

// TestWALTornTail cuts a valid two-transaction log at every byte length
// and requires prefix-valid replay: zero, one, or two transactions, torn
// whenever bytes were discarded, and never an error or panic.
func TestWALTornTail(t *testing.T) {
	mfs := NewMemWALFS()
	w, _ := CreateWAL(mfs, "wal.log")
	appendTxn(t, w, WALCommit{Epoch: 1, Seq: 1, TableCount: 1}, walAdd(0))
	appendTxn(t, w, WALCommit{Epoch: 1, Seq: 2, TableCount: 1}, WALStagedOp{Del: true, ID: 0})
	data, _ := mfs.ReadFile("wal.log")
	fullTxns, torn, err := ReadWAL(data, 0)
	if err != nil || torn || len(fullTxns) != 2 {
		t.Fatalf("full log: txns=%d torn=%v err=%v", len(fullTxns), torn, err)
	}
	// commitEnds[i] is the byte offset just past the i-th commit record:
	// a cut at or beyond it must yield i+1 transactions.
	commitEnds := walCommitEnds(data)
	if len(commitEnds) != 2 {
		t.Fatalf("found %d commit boundaries, want 2", len(commitEnds))
	}
	for cut := 8; cut < len(data); cut++ {
		txns, torn, err := ReadWAL(data[:cut], 0)
		if err != nil {
			t.Fatalf("cut=%d: unexpected error %v", cut, err)
		}
		want := 0
		for _, end := range commitEnds {
			if cut >= end {
				want++
			}
		}
		if len(txns) != want {
			t.Fatalf("cut=%d: %d transactions, want %d", cut, len(txns), want)
		}
		wantTorn := cut != 8 && (want == 0 || cut != commitEnds[want-1])
		if torn != wantTorn {
			t.Fatalf("cut=%d: torn=%v, want %v", cut, torn, wantTorn)
		}
	}
	// Below the magic the log is not a WAL at all.
	if _, _, err := ReadWAL(data[:4], 0); err == nil {
		t.Error("short magic accepted")
	}
}

// walCommitEnds walks the frame structure of a well-formed log and
// returns the offset just past each commit record.
func walCommitEnds(data []byte) []int {
	var ends []int
	off := 8 // magic
	for off+8 <= len(data) {
		n := int(uint32(data[off]) | uint32(data[off+1])<<8 | uint32(data[off+2])<<16 | uint32(data[off+3])<<24)
		if off+8+n > len(data) {
			break
		}
		if data[off+8] == walRecCommit {
			ends = append(ends, off+8+n)
		}
		off += 8 + n
	}
	return ends
}

func TestWALEpochFilter(t *testing.T) {
	mfs := NewMemWALFS()
	w, _ := CreateWAL(mfs, "wal.log")
	for epoch := uint64(1); epoch <= 3; epoch++ {
		appendTxn(t, w, WALCommit{Epoch: epoch, Seq: epoch, TableCount: uint32(epoch)}, walAdd(uint32(epoch)))
	}
	data, _ := mfs.ReadFile("wal.log")
	for after := uint64(0); after <= 3; after++ {
		txns, torn, err := ReadWAL(data, after)
		if err != nil || torn {
			t.Fatalf("after=%d: torn=%v err=%v", after, torn, err)
		}
		if got, want := len(txns), int(3-after); got != want {
			t.Errorf("after=%d: %d txns, want %d", after, got, want)
		}
		for _, txn := range txns {
			if txn.Commit.Epoch <= after {
				t.Errorf("after=%d: replayed epoch %d", after, txn.Commit.Epoch)
			}
		}
	}
}

// TestWALUncommittedTailDiscarded covers both tails replay discards: op
// records no commit sealed, and a record of the retired page-image
// kind, which a v2 log never holds.
func TestWALUncommittedTailDiscarded(t *testing.T) {
	mfs := NewMemWALFS()
	w, _ := CreateWAL(mfs, "wal.log")
	appendTxn(t, w, WALCommit{Epoch: 1, Seq: 1, TableCount: 1}, walAdd(0))
	if err := w.AppendStaged(walAdd(1)); err != nil {
		t.Fatal(err)
	}
	data, _ := mfs.ReadFile("wal.log")
	txns, torn, err := ReadWAL(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !torn {
		t.Error("trailing uncommitted op not reported as torn")
	}
	if len(txns) != 1 {
		t.Fatalf("got %d txns, want 1", len(txns))
	}

	if err := w.AppendPage(0, 0, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendCommit(WALCommit{Epoch: 1, Seq: 2, TableCount: 2}); err != nil {
		t.Fatal(err)
	}
	data, _ = mfs.ReadFile("wal.log")
	if txns, torn, err := ReadWAL(data, 0); err != nil || !torn || len(txns) != 1 {
		t.Fatalf("log with a page record: %d txns, torn=%v, err=%v; want 1, true, nil", len(txns), torn, err)
	}
}

// TestReadWALRefusesV1 pins that a page-image (SDBWAL01) log is refused
// by name rather than read as a torn v2 log.
func TestReadWALRefusesV1(t *testing.T) {
	_, _, err := ReadWAL([]byte("SDBWAL01\x00\x00"), 0)
	if err == nil || !strings.Contains(err.Error(), "SDBWAL01") {
		t.Fatalf("ReadWAL(v1) = %v, want a refusal naming SDBWAL01", err)
	}
}

func TestMemWALFSCrash(t *testing.T) {
	mfs := NewMemWALFS()
	f, err := mfs.Create("a")
	if err != nil {
		t.Fatal(err)
	}
	mfs.SetCrashAfterWrites(2, 42)
	if _, err := f.Write([]byte("first")); err != nil {
		t.Fatalf("pre-crash write: %v", err)
	}
	n, err := f.Write([]byte("second"))
	if !errors.Is(err, ErrWALCrash) {
		t.Fatalf("crash write: n=%d err=%v, want ErrWALCrash", n, err)
	}
	if n < 0 || n > len("second") {
		t.Fatalf("torn length %d out of range", n)
	}
	if !mfs.Crashed() {
		t.Fatal("Crashed() false after crash")
	}
	if _, err := mfs.Create("b"); !errors.Is(err, ErrWALCrash) {
		t.Errorf("Create after crash: %v", err)
	}
	if err := mfs.Rename("a", "c"); !errors.Is(err, ErrWALCrash) {
		t.Errorf("Rename after crash: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrWALCrash) {
		t.Errorf("Sync after crash: %v", err)
	}
	// Reads survive the crash: recovery reads what landed.
	data, err := mfs.ReadFile("a")
	if err != nil {
		t.Fatalf("ReadFile after crash: %v", err)
	}
	if want := "first" + "second"[:n]; string(data) != want {
		t.Errorf("post-crash contents %q, want %q", data, want)
	}
	mfs.Reboot()
	if mfs.Crashed() {
		t.Error("Crashed() true after Reboot")
	}
	if _, err := f.Write([]byte("more")); err != nil {
		t.Errorf("write after Reboot: %v", err)
	}
	if _, err := mfs.ReadFile("missing"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("missing file: %v, want fs.ErrNotExist", err)
	}
}

// FuzzWALReplay feeds arbitrary bytes to the WAL reader: it must never
// panic, and whatever transactions it accepts must be in log order with
// epochs past the filter.
func FuzzWALReplay(f *testing.F) {
	mfs := NewMemWALFS()
	w, _ := CreateWAL(mfs, "wal.log")
	w.AppendStaged(walAdd(0))
	w.AppendStaged(WALStagedOp{Del: true, ID: 0})
	w.AppendCommit(WALCommit{Epoch: 1, Seq: 1, TableCount: 1})
	seed, _ := mfs.ReadFile("wal.log")
	f.Add(seed)
	f.Add(seed[:len(seed)-3])
	f.Add([]byte("SDBWAL02"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		txns, _, err := ReadWAL(data, 0)
		if err != nil {
			return
		}
		for _, txn := range txns {
			if txn.Commit.Epoch == 0 {
				t.Fatalf("accepted commit at epoch 0 past filter 0")
			}
			if len(txn.Ops) > len(data)/walOpSize {
				t.Fatalf("accepted %d ops from %d bytes", len(txn.Ops), len(data))
			}
		}
	})
}
