// Package router is the sharded serving tier of segdb: one Router
// partitions the 16384x16384 world across N independent DB shards and
// presents the familiar Ctx-first query surface over the whole
// collection, fanning each query across the shards that can contribute
// and merging the partial answers.
//
// # Shard cut
//
// The world is cut by a k-d partition over the segments' MBR centers:
// the segment set is split at the median along alternating axes until N
// cells remain, each cell's segment count proportional to its share of
// the leaves, so shards stay balanced even over skewed maps (a county's
// road network is anything but uniform). Every segment is assigned to
// exactly one shard — the one whose cell holds its center — so fan-out
// results concatenate without deduplication. Each shard is an ordinary
// segdb.DB bulk-built with AddBatch (the PR-5 bottom-up pipeline), and
// each records the coverage rectangle of its contents (the union of its
// segments' bounds), which is what query routing prunes against: a
// segment's geometry may overhang its cell, its coverage rectangle
// never lies.
//
// # Identity
//
// Shards number their segments locally; the Router translates between
// local IDs and the global IDs of the original input order (global ID i
// names segs[i], exactly the ID an unsharded DB built from the same
// slice would assign). Every result a Router returns carries global
// IDs, which is what makes the sharded and unsharded answers directly
// comparable — the property tests assert they are identical.
//
// # Concurrency
//
// The shard set is fixed at Build, but the collection is not read-only:
// Ingest routes new segments to shards (each a plain DB.Add underneath)
// and republishes the routing metadata — per-shard global-ID maps and
// coverage rectangles — through atomic pointers, so queries never take a
// Router-level lock: each fan-out pins the metadata snapshot it starts
// with, exactly the discipline the shard DBs' own staged-ingest mode
// applies one level down. Build the shards with segdb.WithStagedIngest
// and ingest never blocks readers at either level.
package router

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"segdb"
	"segdb/internal/obs"
)

// Shard is one partition of a Router: a private DB plus the bookkeeping
// that routes and translates queries. The bookkeeping lives in an
// atomically published shardView so Ingest can extend it while queries
// fan out lock-free.
type Shard struct {
	db   *segdb.DB
	view atomic.Pointer[shardView]
}

// shardView is the immutable routing metadata of one shard: queries
// load it once per fan-out and Ingest publishes a successor, never
// mutating a view in place.
type shardView struct {
	// global maps the shard's local segment IDs (0..len-1, the order the
	// shard's segments were added) to global IDs.
	global []segdb.SegmentID
	// coverage is the union of the bounds of every segment stored in the
	// shard — the rectangle fan-out prunes against. Valid only when
	// nonempty.
	coverage segdb.Rect
	nonempty bool
}

// DB exposes the shard's underlying database (profiling, integrity
// checks). Results from direct shard queries carry local IDs.
func (s *Shard) DB() *segdb.DB { return s.db }

// Coverage returns the union of the shard's segment bounds and whether
// the shard holds any segments at all.
func (s *Shard) Coverage() (segdb.Rect, bool) {
	v := s.view.Load()
	return v.coverage, v.nonempty
}

// Len returns the number of segments routed to the shard.
func (s *Shard) Len() int { return len(s.view.Load().global) }

// shardLoc locates a global segment: which shard holds it and under
// which local ID.
type shardLoc struct {
	shard int32
	local segdb.SegmentID
}

// Router fans queries across the shards of a k-d partitioned segment
// collection and merges the answers. Build one with Build; a Router is
// read-only afterwards.
type Router struct {
	kind   segdb.Kind
	shards []*Shard
	// home maps global IDs to (shard, local ID). Published atomically:
	// Ingest appends under ingestMu and stores a new slice; readers load
	// whatever mapping was current when they started.
	home atomic.Pointer[[]shardLoc]
	// ingestMu serializes Ingest and Compact against each other; queries
	// never take it.
	ingestMu sync.Mutex
	ingested atomic.Uint64

	// prof is the per-kind profile: latency of the whole fan-out and
	// merge, disk accesses summed over the shards.
	prof [numQueryKinds]obs.KindProfile
}

// queryKind indexes the router-level profile slots; the names match the
// DB's own profile kinds so the two levels line up in dashboards.
type queryKind int

const (
	qkWindow queryKind = iota
	qkNearestK
	qkIncidentAt
	qkWindowBatch
	numQueryKinds
)

var queryKindNames = [numQueryKinds]string{
	qkWindow:      "window",
	qkNearestK:    "nearestk",
	qkIncidentAt:  "incident",
	qkWindowBatch: "windowbatch",
}

// record folds one finished router-level query into the profile and
// stamps the router's wall time into st.
func (r *Router) record(qk queryKind, start time.Time, st *segdb.QueryStats, err error) {
	st.Wall = time.Since(start)
	r.prof[qk].Record(st.Wall, st.DiskAccesses(), err)
}

// Build partitions segs across shards databases of the given kind and
// bulk-builds each shard (one goroutine per shard; each build is the
// bottom-up pipeline of AddBatch). Global segment IDs are
// positions in segs — the same IDs an unsharded DB loaded from the same
// slice assigns. opts configure every shard identically (functional
// options only; the serving tier does not accept the legacy *Options
// path).
//
// shards must be >= 1. Shards than end up empty (more shards than
// segments) stay valid and are simply never fanned to.
func Build(kind segdb.Kind, segs []segdb.Segment, shards int, opts ...segdb.Option) (*Router, error) {
	if shards < 1 {
		return nil, fmt.Errorf("router: shard count %d < 1: %w", shards, segdb.ErrInvalidArgument)
	}
	// k-d cut over MBR centers.
	entries := make([]entry, len(segs))
	for i, s := range segs {
		b := s.Bounds()
		entries[i] = entry{
			cx: int32((int64(b.Min.X) + int64(b.Max.X)) / 2),
			cy: int32((int64(b.Min.Y) + int64(b.Max.Y)) / 2),
			gi: uint32(i),
		}
	}
	parts := cut(entries, shards, 0, make([][]entry, 0, shards))

	r := &Router{
		kind:   kind,
		shards: make([]*Shard, shards),
	}
	home := make([]shardLoc, len(segs))
	r.home.Store(&home)
	subs := make([][]segdb.Segment, shards)
	for si, part := range parts {
		// Local insertion order is ascending global ID, so a one-shard
		// Router builds the byte-identical index an unsharded AddBatch
		// over segs would.
		sort.Slice(part, func(i, j int) bool { return part[i].gi < part[j].gi })
		sh := &Shard{}
		v := &shardView{global: make([]segdb.SegmentID, len(part))}
		r.shards[si] = sh
		sub := make([]segdb.Segment, len(part))
		for li, e := range part {
			sub[li] = segs[e.gi]
			v.global[li] = segdb.SegmentID(e.gi)
			home[e.gi] = shardLoc{shard: int32(si), local: segdb.SegmentID(li)}
			b := sub[li].Bounds()
			if !v.nonempty {
				v.coverage, v.nonempty = b, true
			} else {
				v.coverage = v.coverage.Union(b)
			}
		}
		sh.view.Store(v)
		subs[si] = sub
	}
	err := eachShard(r.shards, func(si int, sh *Shard) error {
		db, err := segdb.Open(kind, opts...)
		if err != nil {
			return err
		}
		if _, err := db.AddBatch(subs[si]); err != nil {
			return err
		}
		sh.db = db
		return nil
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

// eachShard runs f(i, shard) for every shard, one goroutine per shard,
// and returns the first error in shard order, so the reported error is
// deterministic however the goroutines interleaved. A shard is a whole
// independent build or compaction, which makes this the module's only
// write-side parallelism.
func eachShard(shards []*Shard, f func(i int, sh *Shard) error) error {
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	wg.Add(len(shards))
	for i, sh := range shards {
		go func() {
			defer wg.Done()
			errs[i] = f(i, sh)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// entry is one segment's routing key: its MBR center and global index.
type entry struct {
	cx, cy int32
	gi     uint32
}

// cut recursively splits es into leaves cells along alternating axes.
// The left subtree receives floor(leaves/2) cells and a proportional
// share of the entries, so any leaf count — 7 included — yields balanced
// shards. Sorting keys are total orders (center, then global index), so
// the partition is deterministic for a given input order.
func cut(es []entry, leaves, axis int, out [][]entry) [][]entry {
	if leaves == 1 {
		return append(out, es)
	}
	nl := leaves / 2
	split := len(es) * nl / leaves
	if axis == 0 {
		sort.Slice(es, func(i, j int) bool {
			a, b := es[i], es[j]
			if a.cx != b.cx {
				return a.cx < b.cx
			}
			if a.cy != b.cy {
				return a.cy < b.cy
			}
			return a.gi < b.gi
		})
	} else {
		sort.Slice(es, func(i, j int) bool {
			a, b := es[i], es[j]
			if a.cy != b.cy {
				return a.cy < b.cy
			}
			if a.cx != b.cx {
				return a.cx < b.cx
			}
			return a.gi < b.gi
		})
	}
	out = cut(es[:split], nl, axis^1, out)
	return cut(es[split:], leaves-nl, axis^1, out)
}

// Kind returns the index kind backing every shard.
func (r *Router) Kind() segdb.Kind { return r.kind }

// Len returns the total number of segments across all shards.
func (r *Router) Len() int { return len(*r.home.Load()) }

// Shards returns the number of shards.
func (r *Router) Shards() int { return len(r.shards) }

// Shard returns shard i for inspection.
func (r *Router) Shard(i int) *Shard { return r.shards[i] }

// Ingested returns how many segments Ingest has routed into the
// collection since Build.
func (r *Router) Ingested() uint64 { return r.ingested.Load() }

// Ingest routes segs into the collection, appending each to the shard
// whose coverage rectangle is nearest its MBR center (an empty shard
// counts as distance zero, so sparse shards fill first). Global IDs
// continue the Build numbering: the i-th ingested segment of the
// router's lifetime gets ID Build-len + i, returned in input order.
//
// Queries never block on an ingest: the extended routing metadata is
// published atomically before the shard databases absorb the segments,
// and each shard write is an ordinary DB.Add — lock-free against that
// shard's readers when the shard was built with segdb.WithStagedIngest.
// Concurrent Ingest calls serialize against each other.
func (r *Router) Ingest(segs []segdb.Segment) ([]segdb.SegmentID, error) {
	if len(segs) == 0 {
		return nil, nil
	}
	for _, s := range segs {
		b := s.Bounds()
		if b.Min.X < 0 || b.Min.Y < 0 || b.Max.X >= segdb.WorldSize || b.Max.Y >= segdb.WorldSize {
			return nil, fmt.Errorf("router: segment %v outside the world: %w", s, segdb.ErrInvalidArgument)
		}
	}
	r.ingestMu.Lock()
	defer r.ingestMu.Unlock()

	views := make([]*shardView, len(r.shards))
	for si, sh := range r.shards {
		views[si] = sh.view.Load()
	}
	targets := make([]int, len(segs))
	for i, s := range segs {
		b := s.Bounds()
		c := segdb.Pt(int32((int64(b.Min.X)+int64(b.Max.X))/2), int32((int64(b.Min.Y)+int64(b.Max.Y))/2))
		best, bestD := 0, -1.0
		for si, v := range views {
			d := 0.0
			if v.nonempty {
				d = v.coverage.DistSqToPoint(c)
			}
			if bestD < 0 || d < bestD {
				best, bestD = si, d
			}
		}
		targets[i] = best
	}

	// Build the successor metadata in full before touching any shard DB:
	// routing tables must already cover a segment when it first becomes
	// queryable, so a concurrent fan-out translating local IDs never
	// finds its map one entry short. Between publish and Add the extra
	// entries simply describe segments no query can return yet.
	oldHome := *r.home.Load()
	newHome := make([]shardLoc, len(oldHome), len(oldHome)+len(segs))
	copy(newHome, oldHome)
	next := make([]*shardView, len(r.shards))
	ids := make([]segdb.SegmentID, len(segs))
	for i, s := range segs {
		si := targets[i]
		nv := next[si]
		if nv == nil {
			old := views[si]
			nv = &shardView{
				global:   append(make([]segdb.SegmentID, 0, len(old.global)+1), old.global...),
				coverage: old.coverage,
				nonempty: old.nonempty,
			}
			next[si] = nv
		}
		gid := segdb.SegmentID(len(newHome))
		newHome = append(newHome, shardLoc{shard: int32(si), local: segdb.SegmentID(len(nv.global))})
		nv.global = append(nv.global, gid)
		b := s.Bounds()
		if !nv.nonempty {
			nv.coverage, nv.nonempty = b, true
		} else {
			nv.coverage = nv.coverage.Union(b)
		}
		ids[i] = gid
	}
	for si, nv := range next {
		if nv != nil {
			r.shards[si].view.Store(nv)
		}
	}
	r.home.Store(&newHome)

	for i, s := range segs {
		sh := r.shards[targets[i]]
		lid, err := sh.db.Add(s)
		if err != nil {
			return nil, fmt.Errorf("router: ingesting into shard %d: %w", targets[i], err)
		}
		if want := newHome[ids[i]].local; lid != want {
			return nil, fmt.Errorf("router: shard %d assigned local ID %d, routing predicted %d", targets[i], lid, want)
		}
	}
	r.ingested.Add(uint64(len(segs)))
	return ids, nil
}

// Compact folds every shard's staging tier into its disk index (one
// goroutine per shard; each shard publishes its rebuilt index under a
// new epoch without blocking that shard's readers). Errors if the shards
// were not built with segdb.WithStagedIngest.
func (r *Router) Compact() error {
	r.ingestMu.Lock()
	defer r.ingestMu.Unlock()
	return eachShard(r.shards, func(_ int, sh *Shard) error { return sh.db.Compact() })
}

// Metrics returns the field-wise sum of every shard's cumulative
// counters.
func (r *Router) Metrics() segdb.Metrics {
	var m segdb.Metrics
	for _, sh := range r.shards {
		m = m.Add(sh.db.Metrics())
	}
	return m
}

// ShardMetrics returns each shard's cumulative counter snapshot, in
// shard order — the per-shard disk-access breakdown the metrics endpoint
// serves.
func (r *Router) ShardMetrics() []segdb.Metrics {
	ms := make([]segdb.Metrics, len(r.shards))
	for i, sh := range r.shards {
		ms[i] = sh.db.Metrics()
	}
	return ms
}

// Profile snapshots the router-level per-query-kind profile: latency is
// the wall time of the whole fan-out and merge, disk accesses are the
// per-query sums across shards. The shape matches segdb.DB.Profile, so
// the two levels aggregate identically.
func (r *Router) Profile() segdb.Profile {
	return segdb.Profile{Queries: obs.Snapshot(r.prof[:], queryKindNames[:])}
}
