# MEGA reproduction — common entry points.

GO ?= go

.PHONY: all check build vet fmt-check test test-race race race-short chaos chaos-short shard-check dynamic-check precision-check portable-check sparsify-check benchmark-smoke loc fuzz fuzz-smoke experiments examples clean

all: check

# check is the full verification flow CI mirrors: compile, static
# analysis, the test suite, and the race detector over everything (the
# serve worker pool makes -race load-bearing).
check: build vet fmt-check portable-check test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# race runs the whole suite under the race detector (slow, thorough).
race:
	$(GO) test -race ./...

# test-race is the quick scoped variant covering the concurrency-bearing
# packages only.
test-race:
	$(GO) test -race ./internal/dist/ ./internal/models/ ./internal/dynamic/ ./internal/serve/ ./cmd/megaserve/

# race-short is the PR-gating race pass: -short over the packages that
# exercise the compute worker pool (tensor kernels, engines, optimiser,
# trainer, server) plus the other concurrency-bearing packages. Full
# `make race` stays the push/nightly job.
race-short:
	$(GO) test -race -short ./internal/compute/ ./internal/tensor/ ./internal/nn/ ./internal/models/ ./internal/train/ ./internal/serve/ ./internal/dist/ ./internal/dynamic/

# chaos runs the fault-injection end-to-end harness (train → checkpoint →
# serve under injected faults) under the race detector with a fixed seed,
# writing the fault-point coverage log to chaos-report.log. chaos-short is
# the PR-sized variant CI runs.
chaos:
	CHAOS_REPORT=$(CURDIR)/chaos-report.log $(GO) test -race -run TestChaosEndToEnd -count=1 -v ./internal/serve/

chaos-short:
	CHAOS_REPORT=$(CURDIR)/chaos-report.log $(GO) test -race -short -run TestChaosEndToEnd -count=1 -v ./internal/serve/

# shard-check runs the gates of the forward-only shard engine, the
# traffic witness of §IV-B6: forward bit-identity against the single
# engine at any worker count (divisors of the path length or not), and
# traffic identity — the observed exchange equals the closed-form path
# partition analysis times the layer count, exactly.
shard-check:
	$(GO) test ./internal/models/ -run 'TestShard' -count=1
	$(GO) test ./internal/dist/ -run 'TestRunHaloExchange|TestAnalyzePathPartition' -count=1

# dynamic-check runs the mutation-subsystem gates: the differential fuzz
# corpus (maintained rep bit-identical to a from-scratch rebuild after
# random add/remove streams, including fused batches, and dynamic.Apply
# equal to ApplyBatch), prediction bit-identity through the monolithic and
# sharded engines, batch atomicity, and the serve /update end-to-end tests
# (chains, concurrent forks, evicted fingerprints, rejected batches and
# bases, error taxonomy). It starts
# with what every repair runs on: the traversal and band pinned byte for
# byte to the recorded output of the hash-map walker they replaced, the
# directed graph that walker never returned on, and two graphs dense in
# self loops, which must end fully covered. It ends with
# predictions issued during an /update session: bit-identical to the
# quiesced re-run and to a fresh server's from-scratch answer.
dynamic-check:
	$(GO) test ./internal/traverse/ -run 'TestTraversalMatchesPinnedDigests|TestRunRejectsDirectedGraph|TestSelfLoopsTerminate' -count=1
	$(GO) test ./internal/dynamic/ -run 'TestPredictionBitIdentity|TestAppliedRepPredictionIdentity|TestBatchAtomicity|TestApply' -count=1
	$(GO) test ./internal/dynamic/ -run '^$$' -fuzz FuzzMaintainerEquivalence -fuzztime 10s
	$(GO) test ./internal/serve/ -run 'TestUpdate|TestMixedPredictUpdateBitIdentity' -count=1

# precision-check runs the float32 fast-path gates: the SIMD kernels
# pinned bit-for-bit against their scalar references, the matmul row
# epilogues bit-identical to the separate passes they fuse, the one
# generic attention forward bit-identical to a naive reference at both
# precisions, in both layouts and at every thread count, checkpoint
# downcast round-trips, the f32 forward pinned to its recorded output
# bits, the f32-vs-f64 differential suite under the ULP envelope, and the
# serve-side -precision f32 end-to-end tests (including degraded-mode
# fallback to float64).
precision-check:
	$(GO) test ./internal/tensor/ -run 'TestSIMDKernelsMatchReference|TestMatMulEpilogue32MatchesUnfused|TestLinearEpilogueMatchesUnfused|TestGradients|TestTapeReleaseRewindsWithoutClearing|TestULPDistance32|TestMeasureDivergence|TestKernels32MatchF64|TestFusedSegmentAttention32MatchesF64|TestFusedAdditiveAttention32MatchesF64|TestFusedAttentionForwardMatchesReference' -count=1
	$(GO) test ./internal/models/ -run 'F32' -count=1
	$(GO) test ./internal/train/ -run 'TestCheckpointDowncast' -count=1
	$(GO) test ./internal/serve/ -run 'TestOptionsPrecisionValidate|TestPrecision' -count=1

# portable-check covers what no amd64 build compiles: `go vet` of the tree
# for arm64 (the !amd64 files), and the arm64 compiler listing of the
# internal/tensor files whose bits one checkpoint must reproduce on every
# GOARCH — portable.go (the micro-kernels the amd64 assembly is pinned
# to), linear.go (the row epilogue of both precisions), kernels.go (the f32
# kernels and the gather, segment-mean and batch-norm forwards of both
# precisions), attention.go and attention_gat.go (the generic attention
# forwards and the f64 backwards) — which must show separate
# multiplies and adds and no fused multiply-add, or one checkpoint would
# predict different bits per GOARCH. The amd64 assembly is held to the
# same rule: no VFMADD/VFNMADD/VFMSUB/VFNMSUB anywhere in simd_amd64.s.
PORTABLE = portable|kernels|linear|attention|attention_gat
portable-check:
	GOARCH=arm64 $(GO) vet ./...
	@if grep -nE 'VFN?M(ADD|SUB)' internal/tensor/simd_amd64.s; then echo "portable-check: fused multiply-add in simd_amd64.s"; exit 1; fi
	@asm=$$(GOARCH=arm64 $(GO) build -gcflags=-S ./internal/tensor/ 2>&1 | grep -E 'tensor/($(PORTABLE))\.go:[0-9]+\)[[:space:]]+F'); \
	for f in $(subst |, ,$(PORTABLE)); do \
		echo "$$asm" | grep "tensor/$$f\.go" | grep -q FMUL || { echo "portable-check: no FMUL from $$f.go in the arm64 listing"; exit 1; }; \
	done; \
	if echo "$$asm" | grep -E 'FN?M(ADD|SUB)'; then echo "portable-check: fused multiply-add in internal/tensor/($(PORTABLE)).go"; exit 1; fi

# fmt-check fails if any Go file is not gofmt-clean.
fmt-check:
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then echo "fmt-check: not gofmt-clean:"; echo "$$files"; exit 1; fi

# sparsify-check runs the effective-resistance sparsification gates: the
# scorer/sampler unit suite (bridge dominance, determinism across thread
# counts, salt independence of the drop and sparsify streams), traversal
# composition (drop+sparsify order bit-identity, independent streams,
# two-sided revisit bound, band shrinkage, options digest), the composite
# rep-cache key regression tests, the sharded-forward bit-identity suite
# over sparsified reps, the dynamic-package rejection, and the acceptance
# bar at Quick() scale (keep 0.5: band no wider and strictly fewer gpusim
# cycles on ZINC, AQSOL and CSL; the measurement bit-reproducible).
sparsify-check:
	$(GO) test ./internal/sparsify/ -count=1
	$(GO) test ./internal/traverse/ -run 'Sparsif|TestOptionsDigest' -count=1
	$(GO) test ./internal/serve/ -run 'TestRepCacheKeyCoversOptions|TestServerRepKeyIncludesSparsify|TestRepCache' -count=1
	$(GO) test ./internal/models/ -run 'Sparsified' -count=1
	$(GO) test ./internal/dynamic/ -run 'TestUnsupportedConfigurations' -count=1
	$(GO) test ./internal/experiments/ -run 'TestSparsifyAcceptance' -count=1

# benchmark-smoke runs the repo's one end-to-end benchmark (BENCHMARK.json,
# benchmark/) in --quick mode: 2 seconds per workload, bounds not
# enforced, but every in-run correctness check exits non-zero.
benchmark-smoke:
	bash benchmark/run.sh --quick

# loc prints non-test Go lines per package, and for the two packages the
# kernel-collapse work is measured on, so "fewer non-test lines" is a
# number CI prints rather than a claim in a PR body.
loc:
	@for d in $$($(GO) list -f '{{.Dir}}' ./...); do \
		n=$$(cat /dev/null $$(ls $$d/*.go | grep -v '_test\.go$$') | wc -l); \
		printf '%6d  .%s\n' $$n "$${d#$(CURDIR)}"; \
	done
	@printf '%6d  ./internal/tensor + ./internal/models\n' \
		$$(cat $$(ls internal/tensor/*.go internal/models/*.go | grep -v '_test\.go$$') | wc -l)

# Short fuzzing passes over the traversal, its band coverage, and the
# graph fingerprint.
fuzz:
	$(GO) test ./internal/band/ -fuzz FuzzTraverseCoverage -fuzztime 30s
	$(GO) test ./internal/graph/ -fuzz FuzzFingerprint -fuzztime 30s
	$(GO) test ./internal/traverse/ -fuzz FuzzTraverse -fuzztime 30s
	$(GO) test ./internal/traverse/ -fuzz FuzzSparsifiedTraverse -fuzztime 30s

# fuzz-smoke is the CI-sized pass: a few seconds per target, enough to
# catch regressions in the properties themselves.
fuzz-smoke:
	$(GO) test ./internal/band/ -fuzz FuzzTraverseCoverage -fuzztime 5s
	$(GO) test ./internal/graph/ -fuzz FuzzFingerprint -fuzztime 5s
	$(GO) test ./internal/traverse/ -fuzz FuzzTraverse -fuzztime 5s
	$(GO) test ./internal/traverse/ -fuzz FuzzSparsifiedTraverse -fuzztime 5s

# Regenerate every paper table and figure at interactive scale.
experiments:
	$(GO) run ./cmd/megabench -scale medium

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/molecules -train 64 -epochs 3 -dim 32
	$(GO) run ./examples/isomorphism
	$(GO) run ./examples/distributed
	$(GO) run ./examples/streaming -n 1000 -updates 200

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt
