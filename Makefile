GO ?= go

# Pinned external linter versions. The tools are optional — the build
# container has no network, so `make lint` runs them only when the binary
# is already on PATH (CI installs them at exactly these versions).
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: all build vet test race verify fmt-check lint lint-smoke bench bench-link bench-smoke linkbench-smoke trace-smoke pgo-smoke omd-smoke verify-smoke clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The parallel harness, OM's concurrent lift, the omd service
# (coalescing, queue, drain, panic recovery), the build cache, concurrent
# links of one shared program (om's TestSharedProgramRunsByteIdentical:
# Run never mutates its input), the telemetry layer (concurrent span
# recording, registry snapshots), and the verification engine must stay
# race-clean.
race:
	$(GO) test -race ./internal/harness ./internal/om ./internal/omd \
		./internal/link ./internal/buildcache ./internal/obs ./internal/verify \
		./internal/dataflow

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# lint runs the Go-source linters: go vet, the repo's own nil-tolerant
# receiver convention check over the observability packages, and — when
# installed — staticcheck and govulncheck at the pinned versions above.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/niltolerant ./internal/obs
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck $(STATICCHECK_VERSION) not installed; skipping (CI runs it)"; fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck $(GOVULNCHECK_VERSION) not installed; skipping (CI runs it)"; fi

# lint-smoke is the static-analysis gate on the linker's own output:
# `omverify -faultcheck` must prove the dataflow checks still have teeth (a
# deliberately broken pass run must be caught statically, no simulator, no
# journal), and a command-line `om -check static` link of a small program
# must come back clean. The golden matrix runs the same analyses under
# verify-smoke's full check.
lint-smoke:
	$(GO) run ./cmd/omverify -faultcheck
	@dir=$$(mktemp -d); \
	printf 'long t[8];\nlong down(long a, long b) { return b - a; }\nlong main() { long i; i = 0; while (i < 8) { t[i] = lhash(i) %% 31; i = i + 1; } qsort8(t, 0, 7, down); print(t[0]); return 0; }\n' > $$dir/t.tc; \
	$(GO) run ./cmd/tcc -o $$dir/t.o $$dir/t.tc && \
	$(GO) run ./cmd/om -check static -o $$dir/a.out $$dir/t.o; \
	status=$$?; rm -rf $$dir; exit $$status

# bench runs the simulator benchmark suite and records it, with
# allocation counts, as BENCH_sim.json, embedding the pre-engine baseline
# so one file shows the perf trajectory. Commit the refreshed file when
# touching the simulator.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkSim|BenchmarkFig6Dynamic' -benchmem \
		-benchtime 2x -count 1 . ./internal/sim \
		| $(GO) run ./cmd/benchjson \
			-baseline results/BENCH_sim_baseline_pr1.json -o BENCH_sim.json
	@cat BENCH_sim.json

# bench-smoke executes every simulator benchmark, the static-check
# benchmarks (an image's analysis, a checked link) and the cold-link
# front-end benchmarks (object decode, lift) exactly once so the bench
# suites themselves cannot bit-rot; CI runs this on every push.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkSim|BenchmarkFig6Dynamic' \
		-benchtime 1x -count 1 . ./internal/sim
	$(GO) test -run '^$$' -bench 'BenchmarkAnalyzeImage' -benchmem \
		-benchtime 1x -count 1 ./internal/dataflow
	$(GO) test -run '^$$' -bench 'BenchmarkObjfileRead|BenchmarkLift$$|BenchmarkLinkCheckStatic' -benchmem \
		-benchtime 1x -count 1 . ./internal/objfile

# bench-link runs the link benchmarks — cold decode+merge+link of li and of
# a progen 4x program, li's cold link under the static check, an
# in-process omd job served from the image cache (progen 4x), the cold
# front end's object decode and lift, and the static check of an OM-full
# image at 1x and 16x — and records them, with allocation counts, as
# BENCH_link.json. Commit the refreshed file when touching the link
# pipeline or the checks.
bench-link:
	$(GO) test -run '^$$' -bench 'BenchmarkLinkCold|BenchmarkLinkCheckStatic|BenchmarkServeImageCacheHit|BenchmarkLift$$|BenchmarkObjfileRead|BenchmarkAnalyzeImage' \
		-benchmem -benchtime 2s -count 1 . ./internal/objfile ./internal/dataflow \
		| $(GO) run ./cmd/benchjson -o BENCH_link.json
	@cat BENCH_link.json

# linkbench-smoke runs the cold-link benchmarks, unchecked and under the
# static check, for 20 iterations (enough that allocs/op is steady; a 1x
# run counts warm-up) and compares them with the committed
# BENCH_link.json: it fails when a benchmark's allocs/op rose more than
# 10%, and reports ns/op and B/op. It then links a program whose
# 32 KB common array makes OM ship its data region as two segments (the
# zero commons become the first one's ZeroSize) with -check full, runs the
# split image in axsim, and requires its output to equal an OM-none link's
# output.
linkbench-smoke:
	@out=$$(mktemp); \
	$(GO) test -run '^$$' -bench 'BenchmarkLinkCold|BenchmarkLinkCheckStatic' -benchmem -benchtime 20x -count 1 . > $$out || { cat $$out; rm -f $$out; exit 1; }; \
	$(GO) run ./cmd/benchjson -compare BENCH_link.json < $$out; \
	status=$$?; rm -f $$out; exit $$status
	@dir=$$(mktemp -d); \
	printf 'long print(long x);\nlong g;\nlong big[4096];\nlong add(long a, long b) { return a + b; }\nlong main() { long i; i = 0; while (i < 10) { g = add(g, i); big[i * 400] = g; i = i + 1; } print(g); print(big[3600]); return 0; }\n' > $$dir/t.tc; \
	$(GO) build -o $$dir/ ./cmd/tcc ./cmd/om ./cmd/axsim && \
	$$dir/tcc -o $$dir/t.o $$dir/t.tc && \
	$$dir/om -check full -o $$dir/full.out $$dir/t.o && \
	$$dir/om -level none -o $$dir/none.out $$dir/t.o && \
	$$dir/axsim $$dir/full.out > $$dir/full.txt && \
	$$dir/axsim $$dir/none.out > $$dir/none.txt && \
	test -s $$dir/none.txt && cmp $$dir/full.txt $$dir/none.txt; \
	status=$$?; rm -rf $$dir; exit $$status

# trace-smoke proves the decision journal accounts for every candidate
# site on a real benchmark: run one benchmark with tracing, then omtrace
# -check every journal (it fails if any address load, call site, or
# GP-reset pair is missing from the journal).
trace-smoke:
	@dir=$$(mktemp -d); \
	$(GO) run ./cmd/omrepro -bench compress -fig 3 -trace $$dir >/dev/null && \
	$(GO) run ./cmd/omtrace -check $$dir/*.json; \
	status=$$?; rm -rf $$dir; exit $$status

# pgo-smoke closes the profile feedback loop on two call-heavy benchmarks:
# instrument -> profile -> relink with layout -> verify identical output,
# strict (any cycle regression fails), and the layout journal must account
# for every procedure (omtrace -check).
pgo-smoke:
	@dir=$$(mktemp -d); \
	$(GO) run ./cmd/omrepro -fig pgo -bench li,sc -pgostrict -trace $$dir && \
	$(GO) run ./cmd/omtrace -check $$dir/*.pgo.json; \
	status=$$?; rm -rf $$dir; exit $$status

# omd-smoke proves the link service's exactly-one-execution property under
# load: an in-process daemon takes many concurrent identical submissions
# and must collapse them to a single link with byte-identical responses.
# It then uploads a program's objects as multipart parts and requires the
# served image to equal a local link of the same modules, and the same
# upload with simulate flipped to be served those bytes from the image
# index. Last, /debug/flights must list the newest finished jobs of
# GET /jobs, and resubmitting the first load job must be a memo hit.
omd-smoke:
	$(GO) run ./cmd/omd -loadsmoke -smoke-clients 32

# verify-smoke is the correctness-engine gate: every golden matrix cell of
# two real benchmarks must pass the full check (dataflow analysis of the
# lifted program, the optimized program and the image, plus translation
# validation) with zero error findings or failed verdicts, 200 generated
# programs must behave identically unoptimized and optimized across the
# quick matrix, and each fuzz target runs 10 seconds from its
# seeded corpus (the minimized crashers in testdata/fuzz also replay as
# plain tests under `make test`). One -fuzz target per invocation — the
# go tool accepts only one fuzzing pattern at a time.
verify-smoke:
	$(GO) run ./cmd/omverify -matrix -bench li,compress
	$(GO) run ./cmd/omverify -diff 200 -seed 1
	$(GO) test -run '^$$' -fuzz '^FuzzObjfileRead$$' -fuzztime 10s ./internal/objfile
	$(GO) test -run '^$$' -fuzz '^FuzzImageRead$$' -fuzztime 10s ./internal/objfile
	$(GO) test -run '^$$' -fuzz '^FuzzLink$$' -fuzztime 10s ./internal/link
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshalOptions$$' -fuzztime 10s ./internal/om
	$(GO) test -run '^$$' -fuzz '^FuzzProfileRead$$' -fuzztime 10s ./internal/profile
	$(GO) test -run '^$$' -fuzz '^FuzzSubmitBody$$' -fuzztime 10s ./internal/omd

# verify is the tier-1 gate: everything CI runs.
verify: build vet test race fmt-check lint lint-smoke bench-smoke linkbench-smoke trace-smoke pgo-smoke omd-smoke verify-smoke

clean:
	$(GO) clean ./...
