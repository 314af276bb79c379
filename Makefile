# Tier-1 verification in one command: `make check`.
GO ?= go

.PHONY: check build vet test race perfbench-test fmt bench bench-smoke bench-diff smoke perfbench

check: fmt build vet test race perfbench-test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# perfbench-test runs the benchmark module's own tests (it is a separate Go
# module, so ./... above does not reach it). It builds against this
# checkout, so a change to an API the benchmark uses fails here.
perfbench-test:
	cd perfbench && GOFLAGS=-mod=mod GOPROXY=off $(GO) test ./...

# fmt fails (listing the offending files) when anything is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# bench regenerates the EXPERIMENTS.md measurements and archives them as
# BENCH_<date>.json (benchmark name, iterations, ns/op, allocs/op, and any
# custom metrics). The text output still streams to the terminal.
BENCH_OUT ?= BENCH_$(shell date +%F).json
bench:
	$(GO) test -bench=. -benchmem ./... | tee /dev/stderr | $(GO) run ./cmd/benchjson > $(BENCH_OUT)

# bench-smoke is the CI variant: one iteration per benchmark, just enough
# to catch harness rot and emit a comparable JSON artifact.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -benchmem ./... | $(GO) run ./cmd/benchjson > $(BENCH_OUT)

# bench-diff re-measures the encoding ablation family and gates it
# against the most recent committed BENCH_*.json: any benchmark whose
# post-preprocessing clause count, allocs/op, B/op, or ns/op grew more
# than 25% over the baseline fails the target. The gated measurement runs
# without profiling — SIGPROF overhead inflates ns/op 10-30% on small
# machines, which would bias the time gate — and a second, profiled run
# leaves bench.pprof (CPU) and bench-mem.pprof (front-end allocations)
# for the CI artifact.
BENCH_BASELINE ?= $(lastword $(sort $(wildcard BENCH_*.json)))
bench-diff:
	$(GO) test -run '^$$' -bench '^BenchmarkEncoding' -benchmem . \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson > bench-current.json
	$(GO) run ./cmd/benchdiff -metric solver-clauses -max-regress 0.25 \
		-max-alloc-regress 0.25 -max-bytes-regress 0.25 -max-time-regress 0.25 \
		$(BENCH_BASELINE) bench-current.json
	$(GO) test -run '^$$' -bench '^BenchmarkEncoding' \
		-cpuprofile bench.pprof -memprofile bench-mem.pprof . > /dev/null

# smoke boots a real muppetd over the Fig. 1 testdata, probes /healthz,
# runs one check, and asserts a clean SIGTERM drain.
smoke:
	GO="$(GO)" ./scripts/daemon_smoke.sh

# perfbench runs one workload of the repository benchmark (see
# perfbench/README.md) on this checkout with tracing off, e.g.
#   make perfbench W=oneshot-dense SEED=3
# The last line of its output is the JSON record of end-to-end metrics.
W ?= oneshot-sparse
SEED ?= 1
perfbench:
	bash perfbench/run.sh --workload $(W) --seed $(SEED) --seconds 20 --trace 0
