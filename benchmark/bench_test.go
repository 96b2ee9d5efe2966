package main

import (
	"bytes"
	"os"
	"sort"
	"testing"
	"time"
)

func TestMedianAndQuartiles(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of odd count = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of even count = %v, want 2.5", got)
	}
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles of three = %v %v %v, want 1 2 4", q1, q2, q3)
	}
	if got := spread([]float64{7}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
	if got, want := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 1.0; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestQuantileNs(t *testing.T) {
	s := make([]int64, 100)
	for i := range s {
		s[i] = int64(i + 1)
	}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 50}, {0.99, 99}, {1, 100}, {0, 1}} {
		if got := quantileNs(s, c.q); got != c.want {
			t.Errorf("quantileNs(q=%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := quantileNs(nil, 0.5); got != 0 {
		t.Errorf("quantileNs(nil) = %d, want 0", got)
	}
}

// The reported tail is the highest percentile with at least ten samples
// beyond it.
func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {200000, 0.99}} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	ns := make([]int64, 1000)
	for i := range ns {
		ns[i] = int64(1000 * (len(ns) - i)) // descending: summarize must sort
	}
	s := summarize(ns)
	if s.p50 != 500 || s.tail != 990 || s.max != 1000 {
		t.Errorf("summarize = %+v", s)
	}
}

func TestStreamsAreSeeded(t *testing.T) {
	m, err := loadMap(quickSizes)
	if err != nil {
		t.Fatal(err)
	}
	for _, wd := range workloadDefs {
		gen := func(seed int64) []byte {
			s, err := makeStreams(wd.Name, seed, quickSizes, m.Segments)
			if err != nil {
				t.Fatal(err)
			}
			return s.encode()
		}
		a, b, c := gen(7), gen(7), gen(8)
		if len(a) == 0 {
			t.Errorf("%s: empty stream", wd.Name)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave two different streams", wd.Name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: two seeds gave the same stream", wd.Name)
		}
	}
	// ingest_inplace replays a prefix of ingest_staged's writes.
	staged, _ := makeStreams("ingest_staged", 7, quickSizes, m.Segments)
	inplace, _ := makeStreams("ingest_inplace", 7, quickSizes, m.Segments)
	for i, w := range inplace.writes {
		if w != staged.writes[i] {
			t.Fatalf("write %d differs between the ingest workloads", i)
		}
	}
}

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, specJSON()) {
		t.Error("BENCHMARK.json differs from the metric tables; regenerate it with: go run ./benchmark -print-spec > BENCHMARK.json")
	}
}

// A quick run of every workload emits exactly the declared metrics, and
// answers everything correctly.
func TestQuickRunEmitsDeclaredMetrics(t *testing.T) {
	names := func(defs []metricDef) []string {
		var n []string
		for _, d := range defs {
			n = append(n, d.Name)
		}
		sort.Strings(n)
		return n
	}
	keys := func(m map[string]metricOut) []string {
		var n []string
		for k := range m {
			n = append(n, k)
		}
		sort.Strings(n)
		return n
	}
	same := func(a, b []string) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	for _, wd := range workloadDefs {
		for _, traced := range []bool{false, true} {
			cfg := &config{seed: defaultSeed, sz: quickSizes, microBudget: time.Millisecond}
			rep, err := runWorkload(wd.Name, cfg, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wd.Name, traced, err)
			}
			if rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed", wd.Name, traced, rep.Failed, rep.Attempted)
			}
			got, want := keys(rep.EndToEnd), names(endToEnd)
			if traced {
				got, want = keys(rep.PerLayer), names(perLayer)
			}
			if !same(got, want) {
				t.Errorf("%s traced=%v: emitted %v, declared %v", wd.Name, traced, got, want)
			}
			if !traced {
				for name, m := range rep.EndToEnd {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", wd.Name, name, m.Value)
					}
				}
			}
		}
	}
}

func TestVerdict(t *testing.T) {
	ops := metricDef{Name: "ops_per_s", Better: higher, Bound: bound(0.10)}
	p50 := metricDef{Name: "p50_us", Better: lower, Bound: bound(0.10)}
	at := func(v, spread float64) metricOut { return metricOut{Value: v, Spread: spread} }
	for _, c := range []struct {
		d    metricDef
		a, b metricOut
		want string
	}{
		{ops, at(100, 0), at(85, 0), verdictRegressed},
		{ops, at(100, 0), at(120, 0), verdictImproved},
		{ops, at(100, 0), at(95, 0), verdictUnchanged},
		{ops, at(100, 0.2), at(95, 0), verdictUnresolved},
		{p50, at(100, 0), at(120, 0), verdictRegressed},
		{p50, at(100, 0), at(85, 0), verdictImproved},
		{p50, at(100, 0), at(105, 0.3), verdictUnresolved},
	} {
		if _, got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("verdict(%s, %v -> %v) = %s, want %s", c.d.Name, c.a.Value, c.b.Value, got, c.want)
		}
	}
}
