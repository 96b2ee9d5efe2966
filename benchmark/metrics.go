package main

import (
	"encoding/json"
	"math"
	"sort"
)

// metricDef declares one metric of the benchmark. BENCHMARK.json at the
// root of the repository is generated from these tables (-print-spec)
// and a test keeps the two equal.
type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"` // end-to-end only
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

const (
	lower  = "lower"
	higher = "higher"
)

func bound(b float64) *float64 { return &b }

// runSeconds is how long one run measures; the round sizes in sizes.go
// are frozen against it (five to seven rounds per run).
const runSeconds = 10

// defaultSeed is the seed used when -seed is not given.
const defaultSeed = 1992

var workloadDefs = []workloadDef{
	{"paper_mix", "the paper's five queries on R*, R+ and PMR with a 16-page pool over 700-2100 index pages: store misses, rpage decode and seg fetches do the work"},
	{"rstar_hot", "R*-tree with a 4096-page pool, all resident: no disk accesses, so kernel, decode-cache hits and facade overhead do the work; miss or decode gains predict no change"},
	{"pmr_compressed", "PMR quadtree at page compression 1, 16-page pool: btree v3 leaf decode of ~1000 entries per touch dominates; R-tree-only changes predict no change"},
	{"serve_browse", "2 closed-loop HTTP clients, 4-shard staged router, default server cache: api parse/cache/JSON and router fan-out do the work, index time is a small share"},
	{"ingest_staged", "1 writer (90% Add, 10% Delete) beside 1 window reader in MVCC mode, WAL on an in-memory FS: staging merge, snapshot pin, compaction stalls and store.WAL"},
	{"ingest_inplace", "the first third of the same write stream and the same reader in RWMutex mode with page-granular WAL: shows a staged-mode gain that costs in-place writers"},
}

// End-to-end metrics. Every workload reports every one of them, and none
// of them is ever 0 (see README.md for what each means on each workload).
var endToEnd = []metricDef{
	{"setup_s", "s", lower, bound(0.25)},
	{"ops_per_s", "1/s", higher, bound(0.25)},
	{"p50_us", "us", lower, bound(0.25)},
	{"write_ops_per_s", "1/s", higher, bound(0.20)},
	{"disk_acc_per_op", "1/op", lower, bound(0.15)},
	{"bytes_per_segment", "B", lower, bound(0.03)},
	{"heap_mb", "MiB", lower, bound(0.10)},
}

var paperKinds = []string{"rstar", "rplus", "pmr"}

// Per-layer metrics, prefixed by the module they time. A layer a
// workload does not enter reports 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{Name: "api.request_us", Unit: "us", Better: lower},
		{Name: "api.handler_us", Unit: "us", Better: lower},
		{Name: "api.transport_us", Unit: "us", Better: lower},
		{Name: "api.encode_ns_per_segment", Unit: "ns", Better: lower},
		{Name: "api.resp_bytes_per_op", Unit: "B", Better: lower},
		{Name: "api.cache_hit_ratio", Unit: "ratio", Better: higher},
		{Name: "api.cache_hit_us", Unit: "us", Better: lower},
		{Name: "api.cache_miss_us", Unit: "us", Better: lower},
		{Name: "api.request_p99_us", Unit: "us", Better: lower},
		{Name: "api.allocs_per_req", Unit: "count", Better: lower},
		{Name: "api.conns_per_req", Unit: "ratio", Better: lower},

		{Name: "router.window_us", Unit: "us", Better: lower},
		{Name: "router.nearest_us", Unit: "us", Better: lower},
		{Name: "router.incident_us", Unit: "us", Better: lower},
		{Name: "router.overhead_us", Unit: "us", Better: lower},
		{Name: "router.shards_per_op", Unit: "count", Better: lower},
		{Name: "router.shard_imbalance", Unit: "ratio", Better: lower},
		{Name: "router.build_s", Unit: "s", Better: lower},

		{Name: "segdb.window_us", Unit: "us", Better: lower},
		{Name: "segdb.nearest_us", Unit: "us", Better: lower},
		{Name: "segdb.overhead_ns_per_op", Unit: "ns", Better: lower},
		{Name: "segdb.read_p99_us", Unit: "us", Better: lower},
		{Name: "segdb.allocs_per_op", Unit: "count", Better: lower},
		{Name: "segdb.write_p50_us", Unit: "us", Better: lower},
		{Name: "segdb.write_p99_us", Unit: "us", Better: lower},
		{Name: "segdb.write_max_us", Unit: "us", Better: lower},
		{Name: "segdb.wal_bytes_per_write", Unit: "B", Better: lower},
		{Name: "segdb.compactions", Unit: "count", Better: lower},
		{Name: "segdb.locked_reads", Unit: "count", Better: lower},
		{Name: "segdb.staged_hits_per_op", Unit: "count", Better: lower},
		{Name: "segdb.load_s.rstar", Unit: "s", Better: lower},
		{Name: "segdb.load_s.rplus", Unit: "s", Better: lower},
		{Name: "segdb.load_s.pmr", Unit: "s", Better: lower},
		{Name: "segdb.addbatch_s", Unit: "s", Better: lower},
		{Name: "segdb.checkpoint_s", Unit: "s", Better: lower},
		{Name: "segdb.recover_s", Unit: "s", Better: lower},
	}
	for _, k := range paperKinds {
		for _, q := range opKindNames {
			defs = append(defs, metricDef{Name: k + "." + q + "_us", Unit: "us", Better: lower})
		}
		defs = append(defs,
			metricDef{Name: k + ".disk_acc_per_op", Unit: "1/op", Better: lower},
			metricDef{Name: k + ".seg_comps_per_op", Unit: "1/op", Better: lower},
			metricDef{Name: k + ".node_comps_per_op", Unit: "1/op", Better: lower},
		)
	}
	return append(defs,
		metricDef{Name: "staging.add_ns", Unit: "ns", Better: lower},
		metricDef{Name: "staging.window_ns", Unit: "ns", Better: lower},

		metricDef{Name: "store.pool_hit_ratio", Unit: "ratio", Better: higher},
		metricDef{Name: "store.pool_hit_ns", Unit: "ns", Better: lower},
		metricDef{Name: "store.pool_miss_ns", Unit: "ns", Better: lower},
		metricDef{Name: "store.decode_skip_ratio", Unit: "ratio", Better: higher},
		metricDef{Name: "store.wal_append_ns", Unit: "ns", Better: lower},
		metricDef{Name: "store.wal_bytes_per_record", Unit: "B", Better: lower},

		metricDef{Name: "seg.get_ns", Unit: "ns", Better: lower},
		metricDef{Name: "seg.pool_hit_ratio", Unit: "ratio", Better: higher},

		metricDef{Name: "rpage.decode_ns_per_page", Unit: "ns", Better: lower},
		metricDef{Name: "rpage.entries_per_page", Unit: "count", Better: higher},
		metricDef{Name: "btree.leaf_decode_ns_per_page", Unit: "ns", Better: lower},
		metricDef{Name: "btree.leaf_entries_per_page", Unit: "count", Better: higher},
		metricDef{Name: "kernel.intersect_ns_per_node", Unit: "ns", Better: lower},
		metricDef{Name: "kernel.intersect_ref_ns_per_node", Unit: "ns", Better: lower},
		metricDef{Name: "kernel.mindist_ns_per_node", Unit: "ns", Better: lower},

		metricDef{Name: "trace.overhead_frac", Unit: "ratio", Better: lower},
	)
}

// benchmarkSpec is the shape of BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func specJSON() []byte {
	spec := benchmarkSpec{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	b, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		panic(err) // the tables above are plain data
	}
	return append(b, '\n')
}

// finite maps the not-a-numbers an empty sample divides into to 0, which
// JSON can carry.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// collector gathers the samples of each metric during one run of one
// workload: one sample per timed round for round metrics, a single
// sample for the rest. The reported value is the median.
type collector struct {
	vals map[string][]float64
	// attribution is serve_browse's per-layer split of a request.
	attribution []depthShare
}

func newCollector() *collector { return &collector{vals: map[string][]float64{}} }

func (c *collector) add(name string, v float64) { c.vals[name] = append(c.vals[name], v) }

// metricOut is one metric of the report.
type metricOut struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Samples int     `json:"samples"`
	// Values are the samples in the order taken (one per timed round).
	Values []float64 `json:"values,omitempty"`
	// Spread is the interquartile range of the samples over their median.
	Spread float64 `json:"spread"`
	// Unresolved marks a bounded metric whose spread within this run was
	// already wider than its bound.
	Unresolved bool `json:"unresolved,omitempty"`
}

// outputs reduces the collected samples to one metricOut per def. Every
// def is present: one that was never sampled reports 0.
func (c *collector) outputs(defs []metricDef) map[string]metricOut {
	out := make(map[string]metricOut, len(defs))
	for _, d := range defs {
		v := c.vals[d.Name]
		m := metricOut{Unit: d.Unit, Samples: len(v), Values: v, Value: finite(median(v)), Spread: finite(spread(v))}
		if len(v) > 0 {
			s := append([]float64(nil), v...)
			sort.Float64s(s)
			m.Min, m.Max = s[0], s[len(s)-1]
		}
		m.Unresolved = d.Bound != nil && m.Spread > *d.Bound
		out[d.Name] = m
	}
	return out
}
