package store

import (
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
)

// WALFS is the small filesystem surface the write-ahead log and the
// checkpoint protocol need: whole-file reads, truncating creates, atomic
// rename, and remove. Two implementations are provided — DirWALFS over a
// real directory, and MemWALFS, an in-memory filesystem with
// deterministic crash injection for recovery harnesses. The two-file
// checkpoint protocol (write temp, sync, rename over the old checkpoint)
// relies on Rename being atomic, which both implementations guarantee.
type WALFS interface {
	// Create truncates (or creates) the named file and returns it open
	// for appending.
	Create(name string) (WALFile, error)
	// ReadFile returns the file's entire contents. A missing file
	// reports an error satisfying errors.Is(err, fs.ErrNotExist).
	ReadFile(name string) ([]byte, error)
	// Rename atomically replaces newname with oldname.
	Rename(oldname, newname string) error
	// Remove deletes the named file. Removing a missing file reports an
	// error satisfying errors.Is(err, fs.ErrNotExist).
	Remove(name string) error
}

// WALFile is an open, append-only WAL or checkpoint file.
type WALFile interface {
	// Write appends len(p) bytes. A short write (torn by a crash) returns
	// an error; the prefix that landed is durable.
	Write(p []byte) (int, error)
	// Sync makes every byte written so far durable.
	Sync() error
	// Close releases the file (without an implicit Sync).
	Close() error
}

// ErrWALCrash marks operations against a MemWALFS after its simulated
// power loss fired: the write in flight was torn and every later
// operation fails until Reboot.
var ErrWALCrash = errors.New("store: WAL filesystem crashed (simulated power loss)")

// DirWALFS is a WALFS over a real directory.
type DirWALFS struct{ dir string }

// NewDirWALFS returns a WALFS rooted at dir, creating it if needed.
func NewDirWALFS(dir string) (*DirWALFS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating WAL directory: %w", err)
	}
	return &DirWALFS{dir: dir}, nil
}

// Create implements WALFS.
func (d *DirWALFS) Create(name string) (WALFile, error) {
	return os.Create(filepath.Join(d.dir, name))
}

// ReadFile implements WALFS.
func (d *DirWALFS) ReadFile(name string) ([]byte, error) {
	return os.ReadFile(filepath.Join(d.dir, name))
}

// Rename implements WALFS.
func (d *DirWALFS) Rename(oldname, newname string) error {
	return os.Rename(filepath.Join(d.dir, oldname), filepath.Join(d.dir, newname))
}

// Remove implements WALFS.
func (d *DirWALFS) Remove(name string) error {
	return os.Remove(filepath.Join(d.dir, name))
}

// MemWALFS is an in-memory WALFS with deterministic crash injection: the
// Nth Write call across all files lands only a random prefix of its
// bytes (a torn write, as a real disk tears a sector on power loss) and
// every subsequent operation fails with ErrWALCrash until Reboot. File
// contents survive the crash exactly as the torn write left them, which
// is what a recovery harness replays.
//
// A MemWALFS is safe for concurrent use.
type MemWALFS struct {
	mu         sync.Mutex
	files      map[string][]byte
	writes     uint64
	crashAfter uint64
	crashed    bool
	rng        *rand.Rand
}

// NewMemWALFS returns an empty in-memory WAL filesystem.
func NewMemWALFS() *MemWALFS {
	return &MemWALFS{files: make(map[string][]byte), rng: rand.New(rand.NewSource(0))}
}

// SetCrashAfterWrites arms the simulated power loss: the nth Write call
// from now (1-based, counting across all files) is torn at a
// seed-deterministic byte offset and the filesystem halts. n = 0 disarms.
func (m *MemWALFS) SetCrashAfterWrites(n uint64, seed int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.writes = 0
	m.crashAfter = n
	m.rng = rand.New(rand.NewSource(seed))
}

// Writes returns the number of Write calls observed since the last
// SetCrashAfterWrites (or creation). Harnesses use a crash-free run's
// total to enumerate the interesting crash points.
func (m *MemWALFS) Writes() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.writes
}

// Crashed reports whether the simulated power loss has fired.
func (m *MemWALFS) Crashed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.crashed
}

// Reboot clears the crashed state (and disarms the countdown), modelling
// the machine coming back up with the files exactly as the crash left
// them. Recovery then reads those files.
func (m *MemWALFS) Reboot() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.crashed = false
	m.crashAfter = 0
}

// Snapshot returns a deep copy of the current file contents (a test
// hook: capture the durable state at a point in time).
func (m *MemWALFS) Snapshot() map[string][]byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string][]byte, len(m.files))
	for name, data := range m.files {
		out[name] = append([]byte(nil), data...)
	}
	return out
}

// Create implements WALFS.
func (m *MemWALFS) Create(name string) (WALFile, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return nil, fmt.Errorf("store: create %q: %w", name, ErrWALCrash)
	}
	m.files[name] = nil
	return &memWALFile{fs: m, name: name}, nil
}

// ReadFile implements WALFS. Reads are allowed even after a crash (the
// recovery harness reads what survived; call Reboot first for clarity).
func (m *MemWALFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[name]
	if !ok {
		return nil, fmt.Errorf("store: read %q: %w", name, fs.ErrNotExist)
	}
	return append([]byte(nil), data...), nil
}

// Rename implements WALFS.
func (m *MemWALFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return fmt.Errorf("store: rename %q: %w", oldname, ErrWALCrash)
	}
	data, ok := m.files[oldname]
	if !ok {
		return fmt.Errorf("store: rename %q: %w", oldname, fs.ErrNotExist)
	}
	delete(m.files, oldname)
	m.files[newname] = data
	return nil
}

// Remove implements WALFS.
func (m *MemWALFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return fmt.Errorf("store: remove %q: %w", name, ErrWALCrash)
	}
	if _, ok := m.files[name]; !ok {
		return fmt.Errorf("store: remove %q: %w", name, fs.ErrNotExist)
	}
	delete(m.files, name)
	return nil
}

// memWALFile is an open file of a MemWALFS. Writes append; the crash
// countdown is charged per Write call, so one logical record appended
// with a single Write is torn as a unit.
type memWALFile struct {
	fs   *MemWALFS
	name string
}

func (f *memWALFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.crashed {
		return 0, fmt.Errorf("store: write %q: %w", f.name, ErrWALCrash)
	}
	data, ok := f.fs.files[f.name]
	if !ok {
		return 0, fmt.Errorf("store: write %q: %w", f.name, fs.ErrNotExist)
	}
	f.fs.writes++
	if f.fs.crashAfter > 0 && f.fs.writes >= f.fs.crashAfter {
		f.fs.crashed = true
		torn := f.fs.rng.Intn(len(p) + 1)
		f.fs.files[f.name] = append(data, p[:torn]...)
		return torn, fmt.Errorf("store: write %q torn at byte %d: %w", f.name, torn, ErrWALCrash)
	}
	f.fs.files[f.name] = append(data, p...)
	return len(p), nil
}

// Sync yields the processor, as an fsync blocks its caller: without
// that, a writer logging to memory never lets a concurrent goroutine on
// its processor run.
func (f *memWALFile) Sync() error {
	f.fs.mu.Lock()
	crashed := f.fs.crashed
	f.fs.mu.Unlock()
	if crashed {
		return fmt.Errorf("store: sync %q: %w", f.name, ErrWALCrash)
	}
	runtime.Gosched()
	return nil
}

func (f *memWALFile) Close() error { return nil }
