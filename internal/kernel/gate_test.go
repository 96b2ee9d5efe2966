package kernel

import (
	"math/rand"
	"os"
	"sort"
	"testing"

	"segdb/internal/geom"
)

// TestKernelRegressionGate is the enforced half of `make bench-kernels`:
// the packed SWAR kernel — the form every in-domain page search actually
// runs — must not be more than 5% slower than the scalar reference it
// replaced, and the overlap-enlargement kernel of the insert path must
// be at least 4x faster than its scalar reference on the common-case
// node (its bounded search alone is logged beside it). It measures with
// testing.Benchmark and compares medians of several runs so a single
// scheduler hiccup cannot fail the gate, and it only runs when
// SEGDB_BENCH_KERNELS=1 because wall-clock assertions do not belong in
// the default `go test` sweep.
//
// The int32-lane fallback kernel is deliberately not gated: it sits at
// parity with the scalar loop (both are bounded by the same per-entry
// compare work), and a parity gate at 5% would flake on noise. The
// packed kernel is the one carrying the win.
func TestKernelRegressionGate(t *testing.T) {
	if os.Getenv("SEGDB_BENCH_KERNELS") == "" {
		t.Skip("set SEGDB_BENCH_KERNELS=1 to run the kernel perf gate")
	}
	if UsingRef {
		t.Skip("-tags kernelref serves the scalar references as the exported kernels; nothing to gate")
	}

	rng := rand.New(rand.NewSource(17))
	xmin, ymin, xmax, ymax := randLanes(rng, 51)
	packed := make([]uint64, 51)
	for i := range packed {
		var ok bool
		if packed[i], ok = PackRect(xmin[i], ymin[i], xmax[i], ymax[i]); !ok {
			t.Fatalf("bench lane %d not packable", i)
		}
	}
	qs := benchQueries(rng)

	medianOf := func(bench func(b *testing.B)) float64 {
		const runs = 5
		ns := make([]float64, 0, runs)
		for r := 0; r < runs; r++ {
			ns = append(ns, float64(testing.Benchmark(bench).NsPerOp()))
		}
		sort.Float64s(ns)
		return ns[len(ns)/2]
	}
	median := func(mask func(q geom.Rect) uint64) float64 {
		return medianOf(func(b *testing.B) {
			var sink uint64
			for i := 0; i < b.N; i++ {
				sink ^= mask(qs[i%benchWindows])
			}
			gateSink = sink
		})
	}

	scalar := median(func(q geom.Rect) uint64 {
		return RefIntersectMask(xmin, ymin, xmax, ymax, q)
	})
	pk := median(func(q geom.Rect) uint64 {
		return IntersectMaskPacked(packed, q)
	})
	t.Logf("scalar reference %.1f ns/node, packed %.1f ns/node (%.2fx)", scalar, pk, scalar/pk)
	if pk > 1.05*scalar {
		t.Fatalf("packed kernel regressed: %.1f ns/node vs scalar reference %.1f ns/node (>5%% over)", pk, scalar)
	}

	for _, seedOverlaps := range []bool{false, true} {
		chooseRef := medianOf(func(b *testing.B) { benchChoose(b, seedOverlaps, RefChooseSubtreeOverlap) })
		choose := medianOf(func(b *testing.B) { benchChoose(b, seedOverlaps, ChooseSubtreeOverlap) })
		t.Logf("ChooseSubtree (seed overlaps: %v) scalar reference %.0f ns/node, overlap-enlargement kernel %.0f ns/node (%.2fx)",
			seedOverlaps, chooseRef, choose, chooseRef/choose)
		if !seedOverlaps && 4*choose > chooseRef {
			t.Fatalf("overlap-enlargement kernel regressed: %.0f ns/node vs scalar reference %.0f ns/node (under 4x)", choose, chooseRef)
		}
	}
}

var gateSink uint64
