package main

import (
	"fmt"
	"runtime"
	"time"

	"segdb"
)

// sizes fixes how much work one round of each workload does. The full
// sizes are frozen: changing one changes what every metric means, so it
// is a benchmark change, not a tuning knob.
type sizes struct {
	mapSegs       int // segments of the county used (0 = all 50,187)
	setupReps     int // fewest set-ups per run; setup_s is their median
	maxSetupReps  int // most set-ups per run, see setupFloor
	minRounds     int // timed rounds run even if -seconds is used up
	paperOps      int // paper_mix reads per index kind per round
	hotOps        int // rstar_hot reads per round
	pmrOps        int // pmr_compressed reads per round
	serveReqs     int // serve_browse requests per client per round
	stagedWrites  int // ingest_staged writes per round
	inplaceWrites int // ingest_inplace writes per round
	readerWindows int // fixed window list the ingest reader loops over
	checks        int // reads verified against the scan in the warm-up
}

var fullSizes = sizes{
	setupReps:     3,
	maxSetupReps:  9,
	minRounds:     3,
	paperOps:      20000,
	hotOps:        300000,
	pmrOps:        40000,
	serveReqs:     2000,
	stagedWrites:  60000,
	inplaceWrites: 10000,
	readerWindows: 2048,
	checks:        200,
}

// quickSizes is the smoke configuration of -quick and the tests: a tiny
// map and one short round, enough to reach every code path and emit
// every metric, not enough to measure anything.
var quickSizes = sizes{
	mapSegs:       2000,
	setupReps:     1,
	maxSetupReps:  1,
	minRounds:     1,
	paperOps:      120,
	hotOps:        2000,
	pmrOps:        300,
	serveReqs:     150,
	stagedWrites:  1200,
	inplaceWrites: 400,
	readerWindows: 64,
	checks:        40,
}

// setupFloor is how long the set-ups of a run go on repeating, within
// sizes.maxSetupReps: a bulk build takes a few hundredths of a second,
// too short to time well in three tries.
const setupFloor = 1500 * time.Millisecond

// serveClients is the number of closed-loop HTTP clients of
// serve_browse; the ingest workloads likewise run two load goroutines
// (one writer, one reader). The target box has two cores.
const serveClients = 2

// config is what one run of one workload is given.
type config struct {
	seed    int64
	seconds float64
	sz      sizes
	// microBudget is how long each micro-benchmark of the traced run
	// measures.
	microBudget time.Duration
	spans       *spanLog // the traced run's spans
}

// roundStats is what one pass over a workload's stream yields.
type roundStats struct {
	ops   int           // reads completed
	wall  time.Duration // wall clock of the pass
	lat   []int64       // per-read latency, ns; valid until the next round
	disk  uint64        // disk accesses charged to the reads
	fails int           // reads or writes that returned an error

	// Ingest workloads only.
	writes    int
	writeWall time.Duration
	writeLat  []int64
}

// instance is one set-up of one workload.
type instance interface {
	// clients is the number of load goroutines (or connections) a round
	// uses.
	clients() int
	// warm runs the stream once, untimed, and verifies a sample of the
	// answers against a linear scan of the map.
	warm() (attempted, failed int, err error)
	// round runs the stream once from a cold cache.
	round() (roundStats, error)
	// finish runs what must be checked after the last round.
	finish() (attempted, failed int, err error)
	// buildStats reports what the set-up wrote and how long the writing
	// took, for write_ops_per_s on the read-only workloads.
	buildStats() (segments int, d time.Duration)
	// footprint returns the stored bytes (index plus table) and the
	// segment count they hold.
	footprint() (bytes int64, segments int)
	// layers runs the traced passes and the micro-benchmarks, adding
	// per-layer samples to c.
	layers(c *collector) (attempted, failed int, err error)
}

// setupFunc builds one instance over the map.
type setupFunc func(cfg *config, m *segdb.MapData, st *streams) (instance, error)

var setups = map[string]setupFunc{
	"paper_mix":      setupPaperMix,
	"rstar_hot":      setupRStarHot,
	"pmr_compressed": setupPMRCompressed,
	"serve_browse":   setupServe,
	"ingest_staged": func(cfg *config, m *segdb.MapData, st *streams) (instance, error) {
		return setupIngest(cfg, m, st, true)
	},
	"ingest_inplace": func(cfg *config, m *segdb.MapData, st *streams) (instance, error) {
		return setupIngest(cfg, m, st, false)
	},
}

// loadMap generates the county and, for quick runs, keeps its first
// segments (the generator sweeps the map, so a prefix is one region).
func loadMap(sz sizes) (*segdb.MapData, error) {
	m, err := segdb.GenerateCounty("Charles")
	if err != nil {
		return nil, err
	}
	if sz.mapSegs > 0 && sz.mapSegs < len(m.Segments) {
		m.Segments = m.Segments[:sz.mapSegs]
	}
	return m, nil
}

// workloadReport is the outcome of one run of one workload.
type workloadReport struct {
	Clients   int                  `json:"clients"`
	Rounds    int                  `json:"rounds"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	EndToEnd  map[string]metricOut `json:"end_to_end,omitempty"`
	PerLayer  map[string]metricOut `json:"per_layer,omitempty"`
	// Attribution splits serve_browse's mean request time by layer.
	Attribution []depthShare `json:"attribution,omitempty"`
}

func heapMB() float64 {
	runtime.GC()
	runtime.GC() // a sync.Pool's contents survive one collection
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// runWorkload sets the workload up, warms and verifies it, and then
// either times rounds for cfg.seconds (untraced, end-to-end metrics) or
// runs the traced passes (per-layer metrics).
func runWorkload(name string, cfg *config, traced bool) (*workloadReport, error) {
	setup, ok := setups[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	c := newCollector()
	rep := &workloadReport{}

	// Set-up, several times over: map generation, streams, build. The
	// last instance is the one measured.
	minReps, maxReps := cfg.sz.setupReps, cfg.sz.maxSetupReps
	if traced {
		minReps, maxReps = 1, 1 // setup_s is an end-to-end metric
	}
	var (
		inst   instance
		setupS []float64
		total  time.Duration
	)
	for i := 0; i < minReps || (i < maxReps && total < setupFloor); i++ {
		runtime.GC() // every build starts from a collected heap
		start := time.Now()
		m, err := loadMap(cfg.sz)
		if err != nil {
			return nil, err
		}
		st, err := makeStreams(name, cfg.seed, cfg.sz, m.Segments)
		if err != nil {
			return nil, err
		}
		if inst, err = setup(cfg, m, st); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		d := time.Since(start)
		total += d
		setupS = append(setupS, d.Seconds())
		if n, d := inst.buildStats(); n > 0 {
			c.add("write_ops_per_s", float64(n)/d.Seconds())
		}
	}
	rep.Clients = inst.clients()
	if rep.Clients > runtime.NumCPU() {
		return nil, fmt.Errorf("%s needs %d load goroutines but the machine has %d CPUs: its numbers would measure the scheduler",
			name, rep.Clients, runtime.NumCPU())
	}

	// Warm-up round: fills caches, finishes lazy set-up, verifies answers.
	warmStart := time.Now()
	att, failed, err := inst.warm()
	if err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", name, err)
	}
	warm := time.Since(warmStart).Seconds()
	rep.Attempted, rep.Failed = att, failed
	c.add("setup_s", median(setupS)+warm)
	c.add("heap_mb", heapMB())
	bytes, segs := inst.footprint()
	c.add("bytes_per_segment", float64(bytes)/float64(segs))

	if traced {
		cfg.spans = &spanLog{t0: time.Now()}
		att, failed, err := inst.layers(c)
		if err != nil {
			return nil, fmt.Errorf("%s: traced pass: %w", name, err)
		}
		rep.Attempted += att
		rep.Failed += failed
		rep.PerLayer = c.outputs(perLayer)
		rep.Attribution = c.attribution
		return rep, nil
	}

	timed := time.Now()
	for rep.Rounds < cfg.sz.minRounds || time.Since(timed).Seconds() < cfg.seconds {
		r, err := inst.round()
		if err != nil {
			return nil, fmt.Errorf("%s: round %d: %w", name, rep.Rounds+1, err)
		}
		rep.Rounds++
		rep.Attempted += r.ops + r.writes
		rep.Failed += r.fails
		c.add("ops_per_s", float64(r.ops)/r.wall.Seconds())
		c.add("p50_us", summarize(r.lat).p50)
		c.add("disk_acc_per_op", float64(r.disk)/float64(r.ops))
		if r.writes > 0 {
			c.add("write_ops_per_s", float64(r.writes)/r.writeWall.Seconds())
		}
	}
	att, failed, err = inst.finish()
	if err != nil {
		return nil, fmt.Errorf("%s: final check: %w", name, err)
	}
	rep.Attempted += att
	rep.Failed += failed
	rep.EndToEnd = c.outputs(endToEnd)
	return rep, nil
}

// cacheCounters is a snapshot of the cache counters of a set of
// databases: both buffer pools, the segment table's pool alone, and the
// decode-once cache.
type cacheCounters struct {
	pools                segdb.Metrics
	tableHits, tableReqs uint64
	decHits, decMisses   uint64
}

func snapshotCaches(dbs ...*segdb.DB) cacheCounters {
	var cc cacheCounters
	for _, db := range dbs {
		cc.pools = cc.pools.Add(db.Metrics())
		ts := db.Index().Table().DiskStats()
		cc.tableHits, cc.tableReqs = cc.tableHits+ts.Hits, cc.tableReqs+ts.Requests()
		h, m := db.DecodeCacheStats()
		cc.decHits, cc.decMisses = cc.decHits+h, cc.decMisses+m
	}
	return cc
}

// addCacheRatios reports what share of the requests since before each
// cache served.
func (c *collector) addCacheRatios(before, after cacheCounters) {
	c.add("store.pool_hit_ratio", after.pools.Sub(before.pools).HitRatio())
	if reqs := after.tableReqs - before.tableReqs; reqs > 0 {
		c.add("seg.pool_hit_ratio", float64(after.tableHits-before.tableHits)/float64(reqs))
	}
	hits, misses := after.decHits-before.decHits, after.decMisses-before.decMisses
	if hits+misses > 0 {
		c.add("store.decode_skip_ratio", float64(hits)/float64(hits+misses))
	}
}
