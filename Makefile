# drainnet build/test/experiment targets. Stdlib-only Go; no external deps.

GO ?= go

.PHONY: all check build vet test test-purego check-asm test-race test-benchmark smoke-sweep smoke-cluster \
        bench-cluster check-allocs check-deps fuzz-smoke \
        bench bench-kernels bench-serve bench-telemetry test-short \
        bench-fast experiments experiments-train examples renders clean

all: build vet test

# The gate for every change: build, vet, full tests, the kernel packages
# again without their assembly (`-tags purego`: the scalar fallback every
# other GOARCH runs), the grep that keeps fused and saturating
# multiply-adds out of the assembly, the whole suite again under the
# race detector (every package, no name filter — a new test can never
# fall outside a pattern), the benchmark harness module
# (its own go.mod, so `./...` never compiles it), the sweep
# kill-and-resume smoke, the cluster kill-under-load smoke, the
# allocation regression guards on the serving forwards, the request
# decoder and the pool's Submit, the import guard that keeps the IOS study
# out of serving, and ten seconds of each native fuzz target.
check: build vet test test-purego check-asm test-race test-benchmark smoke-sweep smoke-cluster check-allocs check-deps fuzz-smoke

# Kill-and-resume smoke: drain a mid-flight sweep (fake backend and the
# real batcher pool), resume it, and require bit-identical results.
smoke-sweep:
	$(GO) test -race -count=1 -run 'TestKillAndResume|TestSweepSurvivesServerRestart' ./internal/sweep/ ./internal/serve/

# Cluster kill-under-load smoke against real processes: a router over 2
# drainnet-serve workers, SIGKILL one mid-load (zero interactive request
# loss required), then SIGTERM drain (exit 0, no orphan workers).
smoke-cluster:
	$(GO) build -o /tmp/drainnet-smoke-bin/drainnet-serve ./cmd/drainnet-serve
	$(GO) build -o /tmp/drainnet-smoke-bin/drainnet-router ./cmd/drainnet-router
	$(GO) run ./cmd/drainnet-load -smoke \
	    -router-bin /tmp/drainnet-smoke-bin/drainnet-router \
	    -serve-bin /tmp/drainnet-smoke-bin/drainnet-serve

# Full cluster protocol -> BENCH_cluster.json: uncontended baseline,
# 10x-capacity bulk overload (interactive p99 must hold within 2x,
# bulk must shed with 429+Retry-After), worker kill under load (zero
# loss + respawn), SIGTERM drain (exit 0, no orphans).
bench-cluster:
	$(GO) build -o /tmp/drainnet-bench-bin/drainnet-serve ./cmd/drainnet-serve
	$(GO) build -o /tmp/drainnet-bench-bin/drainnet-router ./cmd/drainnet-router
	$(GO) run ./cmd/drainnet-load -bench -out BENCH_cluster.json \
	    -router-bin /tmp/drainnet-bench-bin/drainnet-router \
	    -serve-bin /tmp/drainnet-bench-bin/drainnet-serve

# Alloc-regression guard: every steady-state serving forward (the
# sequential fast path, the quantized int8 path, the autotuned
# Winograd/NCHWc/direct kernel mix, the dynamic path, and the fp32, int8
# and dynamic replicas again with the stage hook a trace-sampled pool
# binds) must report exactly 0 allocs per run (testing.AllocsPerRun
# inside the tests). The request decoder's guard
# bounds what a warm server allocates per batch-16 request by a constant
# that does not grow with pixel count;
# the pool's guards pin what one Submit and one 16-clip SubmitAll (a
# sweep unit) on an idle pool allocate; the fp32, int8 and dynamic
# forwards run batches 16 and 17 too, the FC kernel's multi-sample tile
# and the one-sample tail after it; the
# raster-preparation guard bounds a 512² terrain.Generate (11.5 MB, 200
# objects; 10.9 MB and 83 here, where the worker pool first starts inside
# AllocsPerRun's GOMAXPROCS 1 and the flood is one tile, 121 at two tiles
# — one more array per cell fails it) and terrain.Render (5.5 MB, 100
# objects; 5.1 MB and 55). Every name is anchored and must print
# `--- PASS`, so a deleted or misspelt guard fails the target instead of
# matching nothing.
check-allocs:
	@$(call guards,./internal/model/,TestInferSteadyStateZeroAlloc TestQuantInferSteadyStateZeroAlloc TestTunedInferSteadyStateZeroAlloc TestDynamicInferSteadyStateZeroAlloc TestTracedInferSteadyStateZeroAlloc)
	@$(call guards,./internal/serve/,TestDecodeSteadyStateAllocs)
	@$(call guards,./internal/serve/batcher/,TestSubmitSteadyStateAllocs TestSubmitAllSteadyStateAllocs)
	@$(call guards,./internal/terrain/,TestRasterPreparationAllocBudget)

# $(call guards,pkg,names) runs the named top-level tests (space-separated)
# of pkg, verbose and anchored, and fails unless each one printed
# `--- PASS`.
empty :=
space := $(empty) $(empty)
guards = out=$$($(GO) test -run '^($(subst $(space),|,$(strip $(2))))$$' -v $(1)); status=$$?; echo "$$out"; \
	[ $$status -eq 0 ] || exit $$status; \
	for t in $(2); do echo "$$out" | grep -q "^--- PASS: $$t " || { echo "$(1): guard $$t did not run"; exit 1; }; done

# Serving, sweeps, compile, NAS and telemetry must not link the paper's
# IOS study (the simulated-GPU scheduler), its profiler or the
# experiments: the CPU serving path schedules nothing, and the autotuner
# times its convs itself (model.TimeTrimmed, model.CostCache).
check-deps:
	! $(GO) list -deps ./internal/serve/... ./internal/sweep/ ./internal/model/ ./internal/nas/ ./internal/telemetry/ | grep -E '^drainnet/internal/(ios|profiler|experiments)$$'

# Ten seconds of every native fuzz target (go test takes one -fuzz target
# and one package per run). The /v1/detect[/batch] decoders are checked
# against encoding/json on both decode paths, their number scanner and
# pixel token path against strconv.ParseFloat, the pixel-run kernel
# against a loop of the token path, the checkpoint loader against gob's own decode (a
# load fails untouched or restores every value), the cost-cache loader
# against encoding/json (a load fails, or returns the file's entries,
# every one a positive time), the NAS winner-plan loader (a load fails,
# or returns a plan whose arch validates and whose precision and kernel
# mode drainnet-serve knows); the other loader fuzzers of ROADMAP item 3
# go here.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeDetect$$' -fuzztime 10s ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeBatch$$' -fuzztime 10s ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzScanFloat32$$' -fuzztime 10s ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzPixelRun$$' -fuzztime 10s ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzLoadCheckpoint$$' -fuzztime 10s ./internal/train/
	$(GO) test -run '^$$' -fuzz '^FuzzLoadCostCache$$' -fuzztime 10s ./internal/model/
	$(GO) test -run '^$$' -fuzz '^FuzzLoadWinnerPlan$$' -fuzztime 10s ./internal/nas/

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The fp32 GEMM and FC layers, the int8 GEMM, dot and quantizer, and
# their callers without the AVX2 micro-kernels (internal/tensor/panel_amd64.s,
# int8_amd64.s), and the request decoder without its pixel-run kernel
# (internal/serve/pixelrun_amd64.s): what a non-amd64 build serves. The
# differential and golden-digest tests hold the scalar loops to the same
# bits, so the fallback cannot rot unseen.
test-purego:
	$(GO) vet -tags purego ./internal/tensor/... ./internal/serve/
	$(GO) test -tags purego ./internal/tensor/ ./internal/nn/ ./internal/model/ ./internal/serve/

# Instructions that would break the kernels' bit-identity with the
# scalar loops must not appear in the assembly, comments included: the
# FMA family — multiply-add, multiply-subtract, their negated and
# alternating forms, and the AVX-512 four-iteration, FP16-complex and
# BF16-dot relatives — rounds once where the loops round twice;
# VPMADDUBSW saturates its int16 pair sum and VPDPBUSDS / VPDPWSSDS /
# VP4DPWSSDS their int32 accumulator where the loops' integer sums are
# exact; a directed embedded rounding (.RU_SAE, .RD_SAE, .RZ_SAE) is not
# the loops' round-to-nearest. Every .s file of the module is checked
# (directories starting with '.' are not the module's). Tier-1 runs the
# same grep as TestAssemblyHasNoFusedOrSaturatingMultiplyAdd.
check-asm:
	! grep -nE 'VFN?M(ADD|SUB)|VPMADDUBSW|VPDPBUSDS|VPDPWSSDS|V4FN?MADD|VP4DPWSSDS|VFC?MADDC|VFC?MULC|VDPBF16PS|\.R[UDZ]_SAE' $$(find . -path './.*' -prune -o -name '*.s' -print)

# Several minutes: GOMAXPROCS=4 gives the shared worker pool and the
# parallel NAS search real fan-out to race on.
test-race:
	GOMAXPROCS=4 $(GO) test -race ./...

# benchmark/ is a separate module (replace drainnet => ../): an internal/
# API change can break `bash benchmark/run.sh` without failing ./... .
test-benchmark:
	$(GO) -C benchmark vet .
	$(GO) -C benchmark test .

test-short:
	$(GO) test -short ./...

# Every table/figure benchmark, including the training ones (minutes).
# The second line is raster preparation on the benchmark harness's own
# 512² survey config: Generate, baseTerrain, Render and the priority flood.
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x .
	$(GO) test -run '^$$' -bench 512 -benchmem ./internal/terrain/

# Each assembly kernel's avx2 and avx512 leg on the bench net's shapes,
# one core: the fp32 panel, the int8 panel and dot, the FC layers'
# kernel at batches 1, 8, 16 and 17, and the 2×2 max-pool. A ZMM form
# is kept where it beats the YMM one here (DESIGN.md §5.8). Not part of
# `make check`: it measures, it does not gate.
bench-kernels:
	$(GO) test -run '^$$' -bench 'PanelKernel|Int8Kernels|FCKernel|MaxPool2x2/40' -cpu 1 ./internal/tensor/

# Simulator-only benchmarks (seconds).
bench-fast:
	$(GO) test -short -bench=. -benchmem -benchtime=1x .

# Serving throughput: single-mutex path vs batched multi-replica pool.
bench-serve:
	$(GO) test -bench BenchmarkServeThroughput -benchtime 2s ./internal/serve/

# Telemetry hot-path overhead: counter/histogram recording and event
# emission must stay well under 100 ns/op, since every served request
# pays them.
bench-telemetry:
	$(GO) test -run '^$$' -bench 'BenchmarkRegistry|BenchmarkEmit' -benchmem ./internal/telemetry/

# Regenerate the paper's evaluation without training experiments.
experiments:
	$(GO) run ./cmd/drainnet-bench -exp all

# Regenerate everything, including Table 1 and the §8.1 baseline.
experiments-train:
	$(GO) run ./cmd/drainnet-bench -exp all -train

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/batch_tuning
	$(GO) run ./examples/watershed_pipeline
	$(GO) run ./examples/nas_search

renders:
	$(GO) run ./cmd/drainnet-export -out renders

clean:
	rm -rf renders
	$(GO) clean ./...
