GO ?= go
STATICCHECK_VERSION ?= 2024.1.1

.PHONY: check build test vet fmt-check staticcheck govulncheck race fuzz-smoke loc loc-check bench bench-smoke bench-kernels bench-serve serve-smoke profile-hot

# check is the full local gate: what CI runs.
check: fmt-check vet staticcheck govulncheck build loc-check race fuzz-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt-check fails when gofmt would change any file, and lists them.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# staticcheck runs if the binary is installed (CI installs the pinned
# version; locally: go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)).
# Skipping when absent keeps `make check` usable on hermetic machines.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

# govulncheck scans the module against the Go vulnerability database if
# the binary is installed (locally: go install
# golang.org/x/vuln/cmd/govulncheck@latest). Skipping when absent keeps
# `make check` usable on hermetic machines.
govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# fuzz-smoke runs each fuzz target briefly — a regression net for the
# image parsers, the WAL replay path, the hand-written response decoder,
# the two v3 page decoders (the B+-tree's against its reference
# decoder) and the B+-tree's write path (against its reference
# decode/edit/encode write path), not a bug hunt. FuzzBTreeOps plays
# whole operation streams, so its new inputs are minimized for 2 s, not
# the default 60 s that would eat the smoke's time.
fuzz-smoke:
	$(GO) test -run=FuzzReadDiskFrom -fuzz=FuzzReadDiskFrom -fuzztime=10s ./internal/store
	$(GO) test -run=FuzzWALReplay -fuzz=FuzzWALReplay -fuzztime=20s ./internal/store
	$(GO) test -run=FuzzLoad -fuzz=FuzzLoad -fuzztime=10s .
	$(GO) test -run=FuzzDecodeResponse -fuzz=FuzzDecodeResponse -fuzztime=10s ./api
	$(GO) test -run=FuzzDecodeCompressedLeaf -fuzz=FuzzDecodeCompressedLeaf -fuzztime=10s ./internal/btree
	$(GO) test -run=FuzzBTreeOps -fuzz=FuzzBTreeOps -fuzztime=20s -fuzzminimizetime=2s -parallel=2 ./internal/btree
	$(GO) test -run=FuzzDecodeCompressed -fuzz=FuzzDecodeCompressed -fuzztime=10s ./internal/rpage

# loc prints the non-test Go line count the ROADMAP's "net non-test LOC
# goes down" refers to: every .go file that is not a test and not under
# benchmark/ (frozen between benchmark PRs), per package and in total.
LOC_FILES = find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path './.bench_build/*'
loc:
	@$(LOC_FILES) | xargs wc -l | awk '$$2 != "total" { n = split($$2, p, "/"); d = "."; for (i = 2; i < n; i++) d = d "/" p[i]; lines[d] += $$1; total += $$1 } \
		END { for (d in lines) printf "%7d  %s\n", lines[d], d | "sort -k2"; close("sort -k2"); printf "%7d  total\n", total }'

# loc-check is the ratchet on that total: it fails when the count exceeds
# LOC_BUDGET, the total of the last PR that lowered it. A PR that needs
# more lines raises the number here, where the diff shows it.
LOC_BUDGET = 19422
loc-check:
	@total=$$($(LOC_FILES) | xargs cat | wc -l); \
	if [ $$total -gt $(LOC_BUDGET) ]; then \
		echo "loc-check: $$total non-test lines exceed LOC_BUDGET = $(LOC_BUDGET) (see make loc)"; exit 1; \
	fi; \
	echo "loc-check: $$total non-test lines, budget $(LOC_BUDGET)"

# bench runs the repo benchmark (benchmark/README.md): all six workloads
# untraced then traced, every answer checked against the linear-scan
# oracle. It prints its report and writes nothing outside .bench_build/.
# The root Go benchmarks cover what the workloads do not: how the buffer
# pool scales with callers' concurrency (BenchmarkWindowBatch: one
# goroutine running a 256-window batch against 8 goroutines splitting the
# same windows, and their speedup metric) and bulk against incremental
# builds.
# To compare two revisions of those, or the paired build benchmarks
# within one, hand -count runs to benchstat:
#
#   go test -run xxx -bench . -count 10 . > new.txt && benchstat old.txt new.txt
#   go test -run xxx -bench 'BenchmarkBuild(Incremental|Bulk)' -count 10 . > build.txt && benchstat -col '.name@(BuildIncremental,BuildBulk)' build.txt
bench:
	bash benchmark/run.sh --seed 1992

# bench-smoke is the CI-sized bench: BenchmarkWindowBatch and the
# bulk-build Go benchmark at two iterations, the six one-at-a-time
# builds, the duplicate-suppressing reads after a whole-world window
# (the pooled seen set's reset path) and the wire codec benchmarks at
# one, then the repo benchmark's smoke run,
# which builds, runs every workload untraced and traced, and exits
# non-zero on an answer the oracle rejects. It catches a crash or a
# wrong answer in the measurement path; it measures nothing.
bench-smoke:
	$(GO) test -run xxx -bench 'BenchmarkWindowBatch|BenchmarkBuildBulk' -benchtime 2x .
	$(GO) test -run xxx -bench 'BenchmarkBuildIncremental|BenchmarkDedupReads' -benchtime 1x .
	$(GO) test -run xxx -bench WindowResponse -benchtime 1x ./api
	bash benchmark/run.sh --quick

# serve-smoke drives the serving tier end to end through the real lsdb
# binary: `lsdb serve` on an ephemeral port, one of each query type plus
# a cache-hit repeat, a metrics check, and a SIGTERM graceful shutdown.
# The test is env-gated so plain `go test` stays hermetic.
serve-smoke:
	SEGDB_SERVE_SMOKE=1 $(GO) test -run TestServeSmoke -v -count=1 ./api

# bench-serve runs the repo benchmark's serving workload with its
# per-layer ledger (api.*, router.*): the numbers DESIGN.md's serving-tier
# attribution quotes. `go test -bench WindowResponse ./api` prices the
# wire codec alone.
bench-serve:
	bash benchmark/run.sh --workload serve_browse --seed 1992 --seconds 10 --trace 1

# bench-kernels is the kernel-level perf smoke: the scalar-reference,
# SoA-lane, and SWAR-packed compare kernels and the insert path's
# overlap-enlargement kernel against its scalar reference, benchmarked
# side by side (summarized through benchstat when installed; locally: go
# install golang.org/x/perf/cmd/benchstat@latest), the one-at-a-time
# R*-tree loads of the fixed golden map and of Charles county that kernel
# serves, the one-at-a-time R+-tree and k-d-B-tree builds whose split
# line the sorted sweep chooses, the R+-tree and PMR reads behind the
# bitmap seen set (BenchmarkDedupReads), then the enforced gate — the packed
# kernel, the form every in-domain page search runs, must stay within 5%
# of the scalar reference
# (it currently beats it by ~2.8x, so tripping the gate means the
# optimization was lost, not that noise moved), and the overlap-
# enlargement kernel must be at least 4x faster than its own on the
# common-case node (it reads ~20x; ~8x on the node whose seed child
# overlaps). The gate test compares medians of repeated in-process runs
# and is env-gated so plain `go test` never makes wall-clock assertions.
bench-kernels:
	$(GO) test -run xxx -bench 'IntersectMask|MinDistLB|ChooseSubtreeOverlap' -benchtime 0.25s -count 4 ./internal/kernel | tee BENCH_kernels.txt
	@if command -v benchstat >/dev/null 2>&1; then \
		benchstat BENCH_kernels.txt; \
	else \
		echo "benchstat not installed; skipping summary (go install golang.org/x/perf/cmd/benchstat@latest)"; \
	fi
	@rm -f BENCH_kernels.txt
	$(GO) test -run xxx -bench 'RStarInsert' -benchtime 3x -benchmem ./internal/rstar
	$(GO) test -run xxx -bench 'BuildIncremental/(R\+|k-d-B)' -benchtime 3x -benchmem .
	$(GO) test -run xxx -bench DedupReads -benchmem .
	SEGDB_BENCH_KERNELS=1 $(GO) test -run TestKernelRegressionGate -v -count=1 ./internal/kernel

# profile-hot CPU-profiles BenchmarkHotReads — the repo benchmark's
# rstar_hot read mix (everything resident: kernels, pool hits, segment
# fetches, the k-NN queue, the facade) as a Go benchmark, because the
# frozen harness has no profile flag — and prints the top of the profile
# by cumulative time. The test binary and the profile stay in
# .bench_build/; `go tool pprof -list 'Cursor..Get' .bench_build/hot.test
# .bench_build/hot.prof` reads a function line by line. The k-NN share
# alone is BenchmarkNearestK (same resident R*-tree, k = 1, 5, 10):
# `go test -run xxx -bench NearestK -benchmem .`
profile-hot:
	@mkdir -p .bench_build
	$(GO) test -run xxx -bench HotReads -benchtime 5s -o .bench_build/hot.test -cpuprofile .bench_build/hot.prof .
	$(GO) tool pprof -top -cum -nodecount 30 .bench_build/hot.test .bench_build/hot.prof
