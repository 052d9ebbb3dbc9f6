# Development entry points. `make check` is the tier-1 gate: vet, format,
# build everything, and run the fast packages under the race detector
# (the harness package regenerates the paper's experiments and is
# exercised by plain `make test` instead — it is too slow for -race).

GO ?= go

# Every package except the experiment harness: those tests re-run the
# paper's timing sweeps and dominate wall time without adding race
# coverage beyond what the collector/analyzer tests already drive.
FAST_PKGS = . ./internal/archer ./internal/compress ./internal/core \
	./internal/dist ./internal/ilp ./internal/itree ./internal/memsim \
	./internal/obs ./internal/omp ./internal/osl ./internal/pcreg \
	./internal/report ./internal/rt ./internal/server ./internal/stream \
	./internal/trace ./internal/vc ./internal/workloads

.PHONY: build test check fmt vet race stress bench bench-smoke dist-smoke serve-smoke stream-smoke fuzz profile leftovers

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt -w needed on:"; echo "$$out"; exit 1; \
	fi

race:
	$(GO) test -race $(FAST_PKGS)
	$(GO) test -race -short -run 'TestDifferentialSweepVsProbe|TestAnalyzerBenchSmoke|TestStaticFilterDifferential|TestStaticFilterSmoke|TestStreamDifferentialRandom|TestStreamDifferentialWorkloads' ./internal/harness

# Stress lane, outside `make check`: the packages whose tests depend most
# on scheduling (the experiment harness, the streaming analyzer and the
# analyzer core), three times over at one and at four CPUs.
stress:
	$(GO) test -count=3 -cpu 1,4 ./internal/harness ./internal/stream ./internal/core

# Short fuzz pass over the trace readers: adversarial inputs must never
# panic or allocate unboundedly (seed corpus built in internal/trace).
# One invocation per target — go test allows a single -fuzz match.
fuzz:
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzLogReader$$' -fuzztime 10s
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzDecodeMeta$$' -fuzztime 10s
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzTailGrowingLog$$' -fuzztime 10s
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzUploadHandler$$' -fuzztime 10s

# Micro-benchmark suite (collector hot paths, flush pipeline, codecs,
# analyzer phases); writes BENCH_7.json in the schema documented in
# EXPERIMENTS.md. DIST=1 additionally runs the distributed-analysis
# experiment (adaptive, forced-wire, and projected lanes) into
# BENCH_6.json; CHAOS=1 additionally runs the crash-tolerance chaos
# experiment (mid-run store failure, then salvage analysis of the
# wreckage); SERVE=1 additionally runs the analysis-service stress
# experiment (multi-tenant fairness, torn uploads, heap budget) into
# BENCH_8.json. The static-filter comparison (filter on vs off on the
# statically chunked workloads) always runs into BENCH_9.json — it is
# sub-second. The streaming-analysis comparison (first-race latency and
# frontier footprint, online vs post-mortem) always runs into
# BENCH_10.json for the same reason.
bench:
	$(GO) run ./cmd/swordbench -bench BENCH_7.json
	$(GO) run ./cmd/swordbench -filter BENCH_9.json
	$(GO) run ./cmd/swordbench -stream BENCH_10.json
ifdef DIST
	$(GO) run ./cmd/swordbench -dist BENCH_6.json
endif
ifdef CHAOS
	$(GO) run ./cmd/swordbench -chaos
endif
ifdef SERVE
	$(GO) run ./cmd/swordbench -serve BENCH_8.json
endif

# Distributed-analysis smoke: collect a racy trace, then assert that
# single-process swordoffline, `sworddist -local`, and a real coordinator
# plus two worker processes over loopback TCP all report the same races.
dist-smoke:
	GO="$(GO)" sh scripts/dist_smoke.sh

# Analysis-service smoke: collect a racy trace, start swordserve, upload
# the trace over HTTP with curl, poll the job to completion, and assert
# the served report matches single-process swordoffline — then SIGTERM
# and assert a clean drain.
serve-smoke:
	GO="$(GO)" sh scripts/serve_smoke.sh

# Streaming-analysis smoke: collect a racy workload with -live-flush while
# swordwatch tails the growing trace, then assert the live race set
# matches post-mortem swordoffline on the completed trace.
stream-smoke:
	GO="$(GO)" sh scripts/stream_smoke.sh

# Analyzer-engine regression guards: the solver memo and race-site
# suppression must keep answering at least half the requested decisions
# without a real solve, the pair pre-filter must retire the strided
# workload's provably race-free pairs, one full analysis must stay
# within the arena builder's allocation budget, and the static filter
# must cut collection volume and retire pair classes without changing
# any verdict.
bench-smoke:
	$(GO) test -short -run 'TestAnalyzerBenchSmoke|TestStaticFilterSmoke' ./internal/harness
	$(GO) test -run 'TestAnalyzerAllocSmoke' ./internal/harness

# CPU and heap profiles of the end-to-end analyzer benchmark (the
# c_jacobi-class workload the perf acceptance criteria measure). Inspect
# with `go tool pprof cpu.pprof` / `go tool pprof -sample_index=alloc_objects mem.pprof`.
profile:
	$(GO) test -run '^$$' -bench 'BenchmarkAnalyzerEndToEnd' -benchtime 5x \
		-cpuprofile cpu.pprof -memprofile mem.pprof ./internal/harness
	@echo "wrote cpu.pprof and mem.pprof"

# Fails, and lists them, when a smoke, benchmark or test run left one of
# the repo's binaries running — including a `go test` binary
# (…/go-build…/*.test). Each pattern brackets one character so that it
# cannot match the command line of the shell running this recipe.
leftovers:
	@left="$$(pgrep -af '[s]worddist|[s]wordserve|[s]wordrun|[s]wordwatch|[.]bench_build/bench|[g]o-build[0-9]*/.*[.]test' || true)"; \
	if [ -n "$$left" ]; then \
		echo "processes left running:"; echo "$$left"; exit 1; \
	fi

check: vet fmt build race fuzz bench-smoke dist-smoke serve-smoke stream-smoke
	@$(MAKE) --no-print-directory leftovers
	@echo "check: ok"
