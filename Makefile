GO ?= go
GOFMT ?= gofmt

.PHONY: check vet build test race bench bench-sweep bench-json bench-smoke bench-compare bench-mem shuffle fuzz serve-smoke cli-smoke perfbench

# check is the CI gate: vet (with the gofmt gate), build everything, then
# the full test suite under the race detector — which covers the
# intra-study fork-join (Fleet windows) end to end, including
# TestWorkerCountInvariance (full-precision StudyResult equality between
# the sequential engine and per-VC sharding at workers 1 and 4) — a
# one-iteration benchmark smoke so the bench path itself cannot rot, a
# philly-load self-test against an in-process philly-serve so the service
# path cannot either, a run of every study CLI binary and its usage
# errors, and the benchmark module's own vet and tests.
check: vet build race bench-smoke serve-smoke cli-smoke perfbench

# vet also fails when gofmt would rewrite a tracked Go file. The list
# comes from git rather than `gofmt -l .`, which would descend into the
# module cache the benchmark build leaves under .bench_build/.
vet:
	$(GO) vet ./...
	@unformatted=$$($(GOFMT) -l $$(git ls-files '*.go')); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l:"; echo "$$unformatted"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race legs carry the million-event scale tests (trimmed to their most-
# concurrent cells under -race, but still minutes per run on one core), so
# the per-package budget is raised above go test's 10m default.
race:
	$(GO) test -race -timeout 30m ./...

# shuffle is the order-dependence guard for the deterministic-engine
# packages (cross-engine conformance suite, federation, trace replay, and
# the reliability models feeding them): vet, then two repetitions with a
# randomized test order. CI runs it as its own job, followed by the fuzz
# smoke below.
shuffle:
	$(GO) vet ./...
	$(GO) test -count=2 -shuffle=on ./internal/simulation ./internal/federation ./internal/trace ./internal/faults ./internal/failures

# fuzz gives each fuzz target a short randomized budget on top of the
# committed corpus (testdata/fuzz/, replayed by plain `go test` too). The
# trace readers' oracle is the replay determinism contract: any accepted
# input's spec export must round-trip byte-identically. The faults/checkpoint
# spec parsers' oracle is the canonical rendering: accepted specs re-parse to
# the same config and canonicalization is a fixed point. The serve Spec
# JSON's oracle: no body panics resolution, and an accepted spec's resolved
# form resolves to itself with the same canonical hash. The sweep export's
# oracle: no input panics DecodeJSON or the table and plot renderers, and
# WriteJSON of a decoded export decodes and re-encodes to the same bytes.
# Raise FUZZTIME to dig deeper.
FUZZTIME ?= 20s
fuzz:
	$(GO) test -fuzz FuzzReadTraceCSV -fuzztime $(FUZZTIME) -run '^$$' ./internal/trace
	$(GO) test -fuzz FuzzReadTraceJSON -fuzztime $(FUZZTIME) -run '^$$' ./internal/trace
	$(GO) test -fuzz FuzzParseFaultsSpec -fuzztime $(FUZZTIME) -run '^$$' ./internal/core
	$(GO) test -fuzz FuzzServeSpec -fuzztime $(FUZZTIME) -run '^$$' ./internal/serve
	$(GO) test -fuzz FuzzDecodeJSON -fuzztime $(FUZZTIME) -run '^$$' ./internal/sweep

# bench runs every benchmark once per reporting interval; pipe to a file to
# record a BENCH_*.json-style trajectory for the PR log.
bench:
	$(GO) test -bench=. -benchmem -run '^$$' .

# bench-sweep is just the harness scaling curve (workers=1,2,4,8).
bench-sweep:
	$(GO) test -bench BenchmarkSweepWorkerScaling -run '^$$' .

# bench-smoke runs the throughput benchmark for a single iteration; it is
# part of `make check` so the benchmark path cannot silently rot.
bench-smoke:
	$(GO) test -bench=SimulationThroughput -benchtime=1x -run '^$$' .

# bench-json records a machine-readable benchmark baseline. Usage:
#   make bench-json OUT=BENCH_PR2_after.json [BENCH=.] [COUNT=3]
# The output is the go test -json event stream (one JSON object per line),
# which embeds every benchmark's ns/op, B/op, allocs/op and the domain
# metrics reported via b.ReportMetric — diffable across PRs with jq.
BENCH ?= .
COUNT ?= 3
OUT ?= bench.json
bench-json:
	$(GO) test -json -run '^$$' -bench '$(BENCH)' -benchmem -count $(COUNT) . > $(OUT)

# bench-mem runs the memory benchmarks: the regression gate, a federated
# sweep reporting peak_rss_mb (VmHWM, linux) and allocs_total alongside the
# usual -benchmem numbers (those two metrics are gated higher-is-worse by
# `make bench-compare THRESHOLD=...` when both baselines carry them), then
# one medium study's trace export, whose B/op is what the export allocates.
bench-mem:
	$(GO) test -bench 'FederatedSweepMemory|TraceExport' -benchmem -run '^$$' .

# perfbench vets and tests the benchmark module (perfbench/, a Go module of
# its own that the root ./... does not descend into). It compiles against
# the simulator's packages, so an API change there breaks it here first.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# serve-smoke boots an in-process philly-serve, drives it with philly-load
# (open-loop arrivals, repeated specs), and gates on at least one request
# being answered from the result cache — submit, dispatch, progress
# streaming, result download and the provably-exact cache all exercised in
# one shot.
serve-smoke:
	$(GO) run ./cmd/philly-load -requests 12 -rps 20 -specs 2 -require-cache-hit

# cli-smoke builds philly-sim, philly-repro, philly-sweep, philly-trace and
# philly-plot once (into .cli-smoke/), runs each at small scale requiring
# exit 0, runs every usage error of the shared flag group and of each
# command requiring exit 2 with a one-line "command: problem" message, and
# feeds philly-plot an export with trailing garbage, requiring exit 1 and
# one such line. It is the only check on those binaries' main packages.
cli-smoke:
	GO=$(GO) bash scripts/cli-smoke.sh

# bench-compare diffs two bench-json baselines and prints per-benchmark
# ns/op and allocs/op deltas. THRESHOLD (a percent) turns it into a CI
# gate: any benchmark regressing beyond it exits non-zero. Usage:
#   make bench-compare A=BENCH_PR4_before.json B=BENCH_PR4_after.json [THRESHOLD=10]
A ?= BENCH_PR4_before.json
B ?= BENCH_PR4_after.json
THRESHOLD ?= 0
bench-compare:
	$(GO) run ./cmd/bench-compare -threshold $(THRESHOLD) $(A) $(B)
