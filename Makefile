GO ?= go

RACE_PKGS = ./internal/par ./internal/emb ./internal/cache ./internal/extract ./internal/core ./internal/serve ./internal/cluster ./internal/app ./internal/telemetry ./internal/timeline ./internal/flight ./internal/solver ./internal/workload ./internal/baselines ./internal/bench ./cmd/ugache-serve

# Packages with testing.B microbenchmarks on the extraction hot path, on
# the key sampler that generates its load, and on the set-up that builds the
# table, its hotness and the filled caches.
BENCH_PKGS = ./internal/hashtable ./internal/core ./internal/serve ./internal/workload ./internal/emb ./internal/cache

.PHONY: check build test vet fmt fuzz-smoke race bench-harness bench bench-pairs bench-solver bench-setup bench-drift bench-prefetch bench-sim-check examples figures figures-golden figures-diff loc openloop-table

# Every step CI gates on, so a local `make check` fails where CI would.
check: fmt vet build test fuzz-smoke race bench-harness bench-sim-check examples

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Run every program under examples/ (about 5 s together): go build only
# compiles them, and a non-zero exit fails here.
examples:
	@for e in examples/*/; do e=$${e%/}; echo "$(GO) run ./$$e"; $(GO) run ./$$e >/dev/null || exit 1; done

# Ten seconds of each fuzz target beyond its seed corpus (go test alone runs
# only the seeds). A failure writes its input under the package's
# testdata/fuzz/ — commit it with the fix.
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzLPSolve -fuzztime 10s ./internal/lp
	$(GO) test -run xxx -fuzz FuzzEstimatePresence -fuzztime 10s ./internal/workload
	$(GO) test -run xxx -fuzz FuzzZipfRank -fuzztime 10s ./internal/workload
	$(GO) test -run xxx -fuzz FuzzRanker -fuzztime 10s ./internal/workload
	$(GO) test -run xxx -fuzz FuzzRingOwner -fuzztime 10s ./internal/cluster
	$(GO) test -run xxx -fuzz FuzzRealizeSymmetric -fuzztime 10s ./internal/solver
	$(GO) test -run xxx -fuzz FuzzHashtable -fuzztime 10s ./internal/hashtable
	$(GO) test -run xxx -fuzz FuzzParseGoBench -fuzztime 10s ./internal/bench
	$(GO) test -run xxx -fuzz FuzzFlightLines -fuzztime 10s ./internal/flight
	$(GO) test -run xxx -fuzz FuzzPlatformConfig -fuzztime 10s ./internal/platform

# Race coverage of the concurrent paths: lookups/extractions racing
# refreshes, the serving engine, the parallel bench runner (bench is the
# slowest), and ugache-serve end to end (its closed and open loops, listener
# and shutdown).
race:
	$(GO) test -race $(RACE_PKGS)

# The benchmark harness is its own module (benchmark/go.mod, replace ugache
# => ../) and so outside ./...: vet and test it here, so that changing an
# internal/ symbol it imports fails the check instead of the benchmark run.
bench-harness:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...

# Hot-path microbenchmarks with allocation counts (regenerates the checked-in
# BENCH_hotpath.json; the allocs/op column is the budget, ns/op moves with
# the machine). A failed run leaves the baseline as it was.
HOTPATH_BENCH = $(GO) test -run xxx -bench . -benchmem $(BENCH_PKGS)
bench:
	$(HOTPATH_BENCH) | $(GO) run ./scripts/bench_envelope BENCH_hotpath.json "$(HOTPATH_BENCH)" \
		"Hot-path microbenchmarks (make bench): flat hash table probes and dedup, core lookups and one 8-GPU extraction, and the serve flush end to end - one synchronous request per flush (MaxBatchKeys 1) through dedup, simulated extraction, functional gather and fan-out, with the telemetry layer live at its defaults (registry, one batch record per flush into the private 256-deep recorder); the Flight variants hand the server a caller-supplied 4096-deep flight recorder instead. Budget: the serve flush allocates 4 times per operation in timing mode and 5 in functional mode (the caller-owned Result.Rows block), with either recorder; core lookups allocate nothing. The workload rows time the key sampler that generates the load: BenchmarkZipfSample is one Zipf draw (1M keys, alpha 1.2; most draws read the 4096-slice guide, the rest take a cheap power, b^-5 by squaring, and evaluate the inverse-CDF formula through math.Pow only where its margin straddles a rank) and BenchmarkGenBatch one warm batch of the benchmark's train-extract set-up (2048 samples x CR's 26 tables at scale 0.05: the uniforms are drawn in order into the key slice in 13 chunks of 158 samples, and each chunk is ranked in place on a goroutine of its own as soon as it is drawn, the last on the caller; 14 allocations at -cpu 2 - the key slice, the wait group and 12 goroutines - and 1, the key slice, on one processor); BenchmarkRank is the hotness ranking the policy solve and the drift detector share, a bucketed radix sort on up to GOMAXPROCS goroutines (4 allocations at -cpu 2, the goroutines' closures; none on one processor), on 400k scattered noise values and on the two vectors the shipped solves rank: serving (400k distinct presence values, Zipf 1.2) and train (train-extract's 96-batch profile, heavy ties); BenchmarkProfileBatches is the presampling profile the solve consumes, on 16 Zipf batches of 50,000 keys over 100,000 entries (zipf) and on train-extract's 96 warm batches over its 441,337 entries (train): contiguous batch ranges counted on up to GOMAXPROCS workers with counts and stamps of their own, then summed over key ranges. Four rows time set-up: BenchmarkZipfCDF is one CDF(r+1)-CDF(r) sweep over the benchmark's 400,000 ranks at alpha 1.2 (the analytic hotness of its serving workloads), BenchmarkNewMaterialized builds its 400,000 x 32 float32 table (NewMaterialized returns once the shape is checked and generates the rows in the background on GOMAXPROCS-1 workers, at least one, leaving a processor to the caller; each iteration reads the last row, which waits for the whole build, so the row times the build and not its launch: one worker at -cpu 2), BenchmarkFill fills train-extract's caches (ServerC, CR at scale 0.05 as procedural tables, ratio 0.10, the UGache placement of 96 warm batches): the eight backed arenas are made side by side, each GPU's used range is taken at once, and GOMAXPROCS workers claim, in order, the eight hash-table layouts and then 1,024-row chunks, reading each distinct stored row once (two float32 values per 64-bit store) straight into its first holder's slot and copying it from there to the other holders; and BenchmarkBuild (internal/core) is train-extract's whole core.Build on that input, the arenas made on a goroutine beside the UGache solve and handed to the Filler."

# Paired end-to-end runs of a base commit against the working tree, e.g.
#   make bench-pairs BASE=HEAD~1 WORKLOAD=serve-steady [PAIRS=10 SEED=42 KEEP=dir]
# (ten pairs, about seven minutes; not part of check or CI).
PAIRS ?= 10
SEED ?= 42
bench-pairs:
	scripts/bench_pairs.sh $(BASE) $(WORKLOAD) $(PAIRS) $(SEED) $(KEEP)

# Solver control-plane benchmarks: the simplex on a dense and on a
# block-shaped sparse LP, the hotness ranking on the two vectors the shipped
# solves rank, and the shipped policy's whole solve on the benchmark's three
# problems, the last two on one processor and on two (compare against the
# checked-in BENCH_solver.json numbers; its description says how its
# parent/change rows were paired).
bench-solver:
	$(GO) test -run xxx -bench 'BenchmarkSimplexMedium|BenchmarkSimplexBlockLP' -benchmem ./internal/lp
	$(GO) test -run xxx -bench 'BenchmarkRank$$' -benchmem -cpu 1,2 ./internal/workload
	$(GO) test -run xxx -bench BenchmarkPolicySolve -benchmem -cpu 1,2 ./internal/solver

# Set-up benchmarks on one processor and on two: the steps of the
# benchmark's train-extract set-up — one warm batch, the presence profile
# (and the zipf case beside it), the Filler on its own, and core.Build with
# its arenas made beside the solve — the serving workloads' materialized
# table, and one 8-GPU extraction, whose per-GPU grouping runs on par.Each
# (compare against the rows of BENCH_hotpath.json).
bench-setup:
	$(GO) test -run xxx -bench 'BenchmarkGenBatch|BenchmarkProfileBatches' -benchmem -cpu 1,2 ./internal/workload
	$(GO) test -run xxx -bench 'BenchmarkNewMaterialized' -benchmem -cpu 1,2 ./internal/emb
	$(GO) test -run xxx -bench 'BenchmarkFill' -benchmem -cpu 1,2 ./internal/cache
	$(GO) test -run xxx -bench 'BenchmarkBuild|BenchmarkExtractBatch' -benchmem -cpu 1,2 ./internal/core

# Drift-adaptive refresh benchmark: served p99 through a flash-crowd shift
# under blind-periodic vs drift-triggered refresh vs an online LFU baseline
# (regenerates the checked-in BENCH_drift.json).
bench-drift:
	$(GO) run ./cmd/ugache-bench -exp drift -scale 0.25 -json-out BENCH_drift.json

# Lookahead prefetch benchmark: served p99 and effective hit rate at
# lookahead depths L=0/2/8 on the shifting-Zipf stream, with a mid-stream
# refresh exercising the bounded-staleness window (regenerates the
# checked-in BENCH_prefetch.json).
bench-prefetch:
	$(GO) run ./cmd/ugache-bench -exp prefetch -scale 0.25 -json-out BENCH_prefetch.json

# The gate on those two (CI and `make check` run it): both are
# simulated-clock sweeps and regenerate byte for byte, so regenerate each to
# a temporary file and compare it with the checked-in one — everything but the `command` line
# (it names the output path) and the `go` line (it follows the runner's
# patch release).
BENCH_BODY = grep -v -e '^  "command": ' -e '^  "go": '
bench-sim-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && for e in drift prefetch; do \
		$(GO) run ./cmd/ugache-bench -exp $$e -scale 0.25 -json-out $$tmp/$$e.json >/dev/null || exit 1; \
		$(BENCH_BODY) BENCH_$$e.json >$$tmp/$$e.want; \
		$(BENCH_BODY) $$tmp/$$e.json | diff $$tmp/$$e.want - || \
			{ echo "BENCH_$$e.json no longer regenerates (want <, got >): make bench-$$e re-records it if the move is meant"; exit 1; }; \
		echo "BENCH_$$e.json regenerates unchanged"; \
	done

# ugache-serve's open-loop latency table: median lag, engine and observed
# p50 over three 2 s runs at each of 5k, 20k and 80k req/s (about 25 s; not
# part of check or CI). scripts/openloop_table.sh DIR tables another tree.
openloop-table:
	scripts/openloop_table.sh

# Regenerate the paper's tables and figures (minutes at full scale).
figures:
	$(GO) run ./cmd/ugache-bench -exp all

# Re-record internal/bench/testdata/*.golden, the body of every experiment
# at the test scale that TestExperimentsSmoke compares against. Run it when
# a change is meant to move a cell, and review the diff.
figures-golden:
	$(GO) test ./internal/bench -run TestExperimentsSmoke -update

# Recorded-scale figure bodies of a base commit against the working tree:
# the numbers EXPERIMENTS.md quotes are read at -scale 0.25 -iters 3, where
# no golden pins them (the goldens are at the test scale). Builds
# ugache-bench from a git archive of BASE and from the tree, runs both on
# EXP, masks the "### name (N.Ns)" timing headers and diffs the rest; any
# body difference fails. EXP defaults to every experiment an extraction or
# app change can move: those a PeerRandom or MessageBased run feeds and
# those that build an app. About five minutes on two cores; not part of
# check or CI, e.g.
#   make figures-diff BASE=HEAD~1 [EXP=fig4,fig13]
EXP ?= table1,fig2,fig4,fig10,fig11,fig12,fig13,fig14,fig15,fig16,summary,ablate-hotness,ablate-dispatch
FIGURES_MASK = sed -E 's/^(\#\#\# [^ ]+) \([0-9.]+s\)$$/\1/'
figures-diff:
ifndef BASE
	@echo "usage: make figures-diff BASE=<ref> [EXP=fig4,...]"; exit 2
else
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && mkdir "$$tmp/base" && \
	git archive $(BASE) | tar -x -C "$$tmp/base" && \
	(cd "$$tmp/base" && $(GO) build -o "$$tmp/bench-base" ./cmd/ugache-bench) && \
	$(GO) build -o "$$tmp/bench-tree" ./cmd/ugache-bench && \
	for side in base tree; do \
		"$$tmp/bench-$$side" -exp $(EXP) -scale 0.25 -iters 3 >"$$tmp/$$side.out" || exit 1; \
		$(FIGURES_MASK) "$$tmp/$$side.out" >"$$tmp/$$side.txt"; \
	done && \
	diff "$$tmp/base.txt" "$$tmp/tree.txt" && echo "figure bodies identical to $(BASE): $(EXP)"
endif

# Non-test Go lines outside benchmark/: the count a simplicity PR reports.
# `make loc BASE=<ref>` also counts <ref>, from a git archive of it with the
# same filter, and prints the working tree's difference from it.
LOC_FILES = find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*'
loc:
ifndef BASE
	@$(LOC_FILES) | xargs wc -l | tail -1
else
	@base=$$(mktemp -d) && trap 'rm -rf $$base' EXIT && git archive $(BASE) | tar -x -C $$base && \
	tree_loc=$$($(LOC_FILES) | xargs cat | wc -l) && base_loc=$$(cd $$base && $(LOC_FILES) | xargs cat | wc -l) && \
	printf '%8d  working tree\n%8d  $(BASE)\n%+8d  difference\n' $$tree_loc $$base_loc $$((tree_loc - base_loc))
endif
