// Command benchmark is the repository's benchmark: six named workloads,
// end-to-end metrics in wall clock and in the paper's currencies, and a
// per-layer ledger timed from outside the program. See README.md.
//
//	go run ./benchmark -seed 1992 -out report.json      every workload, untraced then traced
//	go run ./benchmark -workload rstar_hot -trace 0      one workload, end-to-end metrics
//	go run ./benchmark -workload serve_browse -trace 1   one workload, per-layer metrics
//	go run ./benchmark -compare a.json b.json            verdict per (workload, metric)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// environment is recorded in every report: numbers from different
// machines or core counts are not comparable.
type environment struct {
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Quick      bool    `json:"quick"`
}

// report is what -out writes and -compare reads.
type report struct {
	Env       environment                `json:"env"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

// gitCommit reads the checked-out commit from .git without running git;
// a checkout that is not a repository reports "unknown".
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	ref = strings.TrimPrefix(ref, "ref: ")
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if packed, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
				return hash
			}
		}
	}
	return "unknown"
}

func printMetrics(workload string, defs []metricDef, m map[string]metricOut) {
	for _, d := range defs {
		v := m[d.Name]
		mark := ""
		if v.Unresolved {
			mark = fmt.Sprintf("  UNRESOLVED: spread %.3f over %d rounds exceeds bound %.2f", v.Spread, v.Samples, *d.Bound)
		}
		fmt.Printf("%-15s %-34s %16.4f %-6s [min %.4f max %.4f n=%d]%s\n",
			workload, d.Name, v.Value, v.Unit, v.Min, v.Max, v.Samples, mark)
	}
}

func printAttribution(rows []depthShare) {
	if len(rows) == 0 {
		return
	}
	fmt.Println("serve_browse: mean time of one request by layer (each pass enters one layer deeper)")
	var self float64
	for _, r := range rows {
		fmt.Printf("  depth %d %-8s total %10.2f us  self %10.2f us  %5.1f%%\n", r.Depth, r.Layer, r.TotalUS, r.SelfUS, 100*r.Share)
		self += r.SelfUS
	}
	fmt.Printf("  self times sum to %.2f us; api.request_us is %.2f us\n", self, rows[0].TotalUS)
}

// driverLine is the last line of a single-workload run.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func spansPath(base, workload string, single bool) string {
	if single {
		return base
	}
	return strings.TrimSuffix(base, ".jsonl") + "." + workload + ".jsonl"
}

func run() error {
	var (
		workload  = flag.String("workload", "", "run only this workload and end with one JSON line (default: all six)")
		seed      = flag.Int64("seed", defaultSeed, "seed of every generated op stream")
		seconds   = flag.Float64("seconds", runSeconds, "how long the timed rounds of one workload run")
		trace     = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 runs the traced passes and reports the per-layer metrics")
		out       = flag.String("out", "", "write the full report as JSON to this file")
		spansOut  = flag.String("spans", "", "write the traced passes' spans as JSONL to this file")
		quick     = flag.Bool("quick", false, "smoke run: tiny map, one short round (measures nothing)")
		compare   = flag.Bool("compare", false, "compare two reports: -compare a.json b.json")
		printSpec = flag.Bool("print-spec", false, "print BENCHMARK.json as generated from the metric tables")
	)
	flag.Parse()
	if *printSpec {
		_, err := os.Stdout.Write(specJSON())
		return err
	}
	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two report files")
		}
		return compareReports(flag.Arg(0), flag.Arg(1))
	}

	rep := report{
		Env: environment{
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			Commit: gitCommit(), Seed: *seed, Seconds: *seconds, Quick: *quick,
		},
		Workloads: map[string]*workloadReport{},
	}
	fmt.Printf("env: num_cpu=%d gomaxprocs=%d go=%s commit=%s seed=%d seconds=%g quick=%v\n",
		rep.Env.NumCPU, rep.Env.GOMAXPROCS, rep.Env.GoVersion, rep.Env.Commit, *seed, *seconds, *quick)

	newConfig := func() *config {
		cfg := &config{seed: *seed, seconds: *seconds, sz: fullSizes}
		// Some twenty micro-benchmarks share a tenth of the run.
		cfg.microBudget = time.Duration(*seconds / 200 * float64(time.Second))
		if *quick {
			cfg.sz, cfg.seconds, cfg.microBudget = quickSizes, 0, time.Millisecond
		}
		return cfg
	}
	runOne := func(name string, traced bool) (*workloadReport, error) {
		cfg := newConfig()
		wr, err := runWorkload(name, cfg, traced)
		if err != nil {
			return nil, err
		}
		if traced {
			printMetrics(name, perLayer, wr.PerLayer)
			printAttribution(wr.Attribution)
			if *spansOut != "" {
				if err := cfg.spans.writeJSONL(spansPath(*spansOut, name, *workload != "")); err != nil {
					return nil, err
				}
			}
		} else {
			printMetrics(name, endToEnd, wr.EndToEnd)
		}
		return wr, nil
	}

	failed := 0
	if *workload != "" {
		wr, err := runOne(*workload, *trace != 0)
		if err != nil {
			return err
		}
		rep.Workloads[*workload] = wr
		failed = wr.Failed
		line := driverLine{Correct: wr.Failed == 0, Attempted: wr.Attempted, Failed: wr.Failed, Metrics: map[string]driverValue{}}
		metrics := wr.EndToEnd
		if *trace != 0 {
			metrics = wr.PerLayer
		}
		for name, m := range metrics {
			line.Metrics[name] = driverValue{Value: m.Value, Unit: m.Unit}
		}
		b, err := json.Marshal(line)
		if err != nil {
			return err
		}
		fmt.Println(string(b)) // the last line of standard output
	} else {
		for _, wd := range workloadDefs {
			wr, err := runOne(wd.Name, false)
			if err != nil {
				return err
			}
			traced, err := runOne(wd.Name, true)
			if err != nil {
				return err
			}
			wr.PerLayer, wr.Attribution = traced.PerLayer, traced.Attribution
			wr.Attempted += traced.Attempted
			wr.Failed += traced.Failed
			rep.Workloads[wd.Name] = wr
			failed += wr.Failed
			fmt.Printf("%-15s failed_frac %d/%d\n", wd.Name, wr.Failed, wr.Attempted)
		}
	}
	if *out != "" {
		b, err := json.MarshalIndent(&rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed or answered wrongly", failed)
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
