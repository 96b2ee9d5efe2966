package segdb

import (
	"errors"
	"fmt"

	"segdb/internal/kinds"
)

// Option configures Open. Options compose left to right:
//
//	db, err := segdb.Open(segdb.PMRQuadtree,
//	    segdb.WithPageSize(2048),
//	    segdb.WithPoolPages(64))
//
// A nil Option is skipped, so the pre-v2 spelling Open(kind, nil) still
// compiles and means the defaults. Runtime state — a tracer, fault and
// retry policies, degraded reads — attaches after Open through the
// database's Set* methods.
type Option interface {
	apply(*options)
}

// options is what the With* functions fold into: the construction
// parameters a saved image's header restores, plus the database's modes,
// which no image stores.
type options struct {
	kinds.Config
	WALDir           string // WithWAL
	WALFS            WALFS  // WithWALFS; overrides WALDir
	StagedIngest     bool   // WithStagedIngest
	CompactThreshold int    // WithCompactThreshold
}

type optionFunc func(*options)

func (f optionFunc) apply(o *options) { f(o) }

// WithPageSize sets the disk page size in bytes (default 1024, the
// paper's configuration). Open refuses sizes outside 64 B … 1 MiB.
func WithPageSize(n int) Option {
	return optionFunc(func(o *options) { o.PageSize = n })
}

// WithPoolPages sets the buffer pool capacity in pages (default 16).
// Open refuses capacities outside 1 … 65,536.
func WithPoolPages(n int) Option {
	return optionFunc(func(o *options) { o.PoolPages = n })
}

// WithPMRThreshold sets the PMR quadtree splitting threshold
// (default 4).
func WithPMRThreshold(n int) Option {
	return optionFunc(func(o *options) { o.PMRThreshold = n })
}

// WithPMRStoreMBR enables the PMR "3-tuple" variant that stores a small
// bounding rectangle with every q-edge.
func WithPMRStoreMBR(enabled bool) Option {
	return optionFunc(func(o *options) { o.PMRStoreMBR = enabled })
}

// WithPageCompression selects the on-disk page format (default 0):
//
//	0  classic fixed-width pages, byte-identical to earlier versions;
//	1  lossless compressed pages: B+-tree leaves (PMR quadtree, uniform
//	   grid) delta-code their sorted keys as varints and bit-pack
//	   payloads to the 14-bit world domain, R-tree-family nodes store
//	   child rectangles as 16-bit offsets from the node MBR.
//
// Open refuses any other level. Pages are self-describing, so images
// written at either level can be read back regardless of the database's
// current setting; the level only governs what new writes produce.
func WithPageCompression(level int) Option {
	return optionFunc(func(o *options) { o.PageCompression = level })
}

// WithWAL makes the database durable: every mutation is written ahead
// to a CRC-framed log in dir (created if needed) and synced before the
// mutation returns, and checkpoints are replaced atomically. After a
// crash, Recover(dir) replays the log onto the last checkpoint. Open
// refuses a directory that already holds a checkpoint — reopen that
// state with Recover instead.
func WithWAL(dir string) Option {
	return optionFunc(func(o *options) { o.WALDir = dir })
}

// WithWALFS is WithWAL over an explicit log filesystem instead of a
// directory path. Crash-recovery harnesses pass a MemWALFS, whose
// deterministic torn-write injection simulates power loss at any chosen
// write.
func WithWALFS(fs WALFS) Option {
	return optionFunc(func(o *options) { o.WALFS = fs })
}

// WithStagedIngest opens the database in staged-ingest (MVCC) mode:
// queries pin an immutable published snapshot and run with no locking
// at all, while Add and Delete are absorbed by an in-memory staging
// tier — a memtable over a coarse grid — visible to queries
// immediately. Compaction (automatic past the threshold, or explicit
// via DB.Compact) folds the staging tier into a freshly bulk-built
// disk index and publishes it under a new epoch; readers pinned to the
// old epoch finish against the old index undisturbed. Writers never
// block readers and readers never block writers. A runtime mode: not
// serialized by Save.
func WithStagedIngest() Option {
	return optionFunc(func(o *options) { o.StagedIngest = true })
}

// WithCompactThreshold sets how large the staging tier (memtable
// entries plus base tombstones) may grow before a write triggers
// compaction (default 4096; negative disables automatic compaction,
// leaving it to explicit DB.Compact calls). Only meaningful with
// WithStagedIngest.
func WithCompactThreshold(n int) Option {
	return optionFunc(func(o *options) { o.CompactThreshold = n })
}

// foldOptions applies the options, left to right, to a zero options.
func foldOptions(opts []Option) options {
	var o options
	for _, opt := range opts {
		if opt != nil {
			opt.apply(&o)
		}
	}
	return o
}

// resolveOptions folds the options and fills each field left at zero
// with its default: the paper's, from kinds.DefaultConfig, and a
// 4,096-entry staging tier.
func resolveOptions(opts []Option) options {
	o := foldOptions(opts)
	d := kinds.DefaultConfig()
	if o.PageSize == 0 {
		o.PageSize = d.PageSize
	}
	if o.PoolPages == 0 {
		o.PoolPages = d.PoolPages
	}
	if o.PMRThreshold == 0 {
		o.PMRThreshold = d.PMRThreshold
	}
	if o.CompactThreshold == 0 {
		o.CompactThreshold = 4096
	}
	return o
}

// Bounds on the page and pool sizes an image header may carry, and so on
// what Open accepts: a database Open creates is one whose checkpoint Load
// and Recover can read back.
const (
	minPageSize  = 64
	maxPageSize  = 1 << 20
	maxPoolPages = 1 << 16
)

// checkOptions is the range check Open applies to its resolved options
// and Load to an image's header, before either sizes anything from them.
// Level 2 gets its own message because images written at it exist
// (DESIGN.md, "Compressed pages").
func checkOptions(o kinds.Config) error {
	switch o.PageCompression {
	case 0, 1:
	case 2:
		return errors.New("page compression level 2 (8-bit lossy R-tree pages) is a removed format; use level 0 or 1")
	default:
		return fmt.Errorf("invalid page compression level %d (want 0 or 1)", o.PageCompression)
	}
	if o.PageSize < minPageSize || o.PageSize > maxPageSize {
		return fmt.Errorf("page size %d outside %d..%d bytes", o.PageSize, minPageSize, maxPageSize)
	}
	if o.PoolPages < 1 || o.PoolPages > maxPoolPages {
		return fmt.Errorf("pool size %d outside 1..%d pages", o.PoolPages, maxPoolPages)
	}
	return nil
}
