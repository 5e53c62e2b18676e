# Tier-1 verification plus static checks and the runner race test as one
# command: `make ci`.
GO ?= go

.PHONY: all build test vet race bench benchsmoke benchguard allocguard chaos-smoke kb-smoke guideline-smoke fork-smoke scale-smoke pdes-smoke ci

all: ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The packages with real goroutine concurrency — the experiment runner
# (worker pool, shared progress state, cache writes), the sharded PDES
# engine and everything that executes on it (sim windows, the sharded
# netmodel views and mpi world, the bench PDES determinism matrix) — run
# under the race detector.
race:
	$(GO) test -race ./internal/runner ./internal/sim/... ./internal/mpi/... ./internal/nbc/... ./internal/chaos/... ./internal/kb ./internal/netmodel
	$(GO) test -race -count 1 -run 'PDES' ./internal/bench

# All Go benchmarks, one iteration each, as a smoke. A committed baseline
# BENCH_<gate>.json is regenerated from full measurements on a quiet
# machine with `go run ./cmd/bench -write <gate>`.
bench:
	$(GO) test -bench . -benchtime 1x -run XXX ./...

# One-iteration smoke of the committed engine baseline (BENCH_sim.json).
benchsmoke:
	$(GO) test -bench EngineThroughput -benchtime 1x -run XXX ./internal/sim

# End-to-end smoke of the knowledge-base service: builds the real cmd/tuned
# binary, replays the committed golden transcript through kb.Client, stops
# the daemon with SIGTERM, and checks the recovered snapshot.
kb-smoke:
	$(GO) test -count 1 -run TestKBSmoke ./internal/kb

# Short noisy sweep under the race detector: the bench chaos tests run the
# verification sweep with the "congested" profile attached (twice, checking
# byte-identity), and the chaos package's own determinism suite rides along.
# -short skips the full committed-summary reproduction, keeping this a smoke.
chaos-smoke:
	$(GO) test -race -short -count 1 -run 'TestChaos' ./internal/bench
	$(GO) test -race -count 1 ./internal/chaos/...

# PDES gate: the window/lookahead unit suites and the determinism matrices
# under the race detector (shards 1/2/4/8 must produce byte-identical
# artifacts), then a sharded fast sweep written to a scratch path and
# compared against a second run at a different shard count.
pdes-smoke:
	$(GO) test -race -count 1 -run 'Window|Lookahead|Sharded|PDES' ./internal/sim ./internal/netmodel ./internal/mpi ./internal/platform ./internal/bench
	$(GO) run ./cmd/sweep -suite verification -fast -quiet -shards 2 -out results/.pdes_smoke_s2.json > /dev/null
	$(GO) run ./cmd/sweep -suite verification -fast -quiet -shards 4 -out results/.pdes_smoke_s4.json > /dev/null
	cmp results/.pdes_smoke_s2.json results/.pdes_smoke_s4.json
	rm -f results/.pdes_smoke_s2.json results/.pdes_smoke_s4.json
	@echo "pdes-smoke: sharded runs race-clean, sweep summaries byte-identical across shard counts"

# Scale gate: the 16K footprint pin, the 4K fork replay, the scale
# conformance suite for the topology-aware variants (-short keeps the chaos
# legs smoke-sized), then a fast scale sweep through the cached runner —
# written to a scratch path so the committed results/sweep_summary.json
# stays byte-identical.
scale-smoke:
	$(GO) test -count 1 -run 'TestIdleWorldFootprint16K' ./internal/bench
	$(GO) test -count 1 -run 'TestFork4KQuiescentReplay' ./internal/mpi
	$(GO) test -short -count 1 -run 'TestScaleConformance|TestConformanceIbcastTorus|TestConformanceIbarrierTree' ./internal/nbc
	$(GO) run ./cmd/sweep -suite scale -fast -quiet -out results/.scale_smoke.json > /dev/null
	rm -f results/.scale_smoke.json
	@echo "scale-smoke: 16K world inside budget, 4K fork replay exact, scale variants conformant"

# Snapshot/fork gate: the fork test suites across every layer, then the
# end-to-end worker-count invariant — cmd/tune -speculate must write a
# byte-identical decision artifact (winner, audit, virtual latencies) at 1
# and at 8 fork workers.
fork-smoke:
	$(GO) test -count 1 -run 'Fork|Snapshot|Clonable|Speculative|StartPanicsOnPendingPooledHandle|HistoryFreeze|ReadOnlySource' ./internal/sim ./internal/mpi ./internal/nbc ./internal/core ./internal/bench
	$(GO) run ./cmd/tune -op ialltoall -np 8 -msg 65536 -compute 0.005 -iters 5 -speculate -spec-workers 1 -metrics results/.fork_smoke_w1.json > /dev/null
	$(GO) run ./cmd/tune -op ialltoall -np 8 -msg 65536 -compute 0.005 -iters 5 -speculate -spec-workers 8 -metrics results/.fork_smoke_w8.json > /dev/null
	cmp results/.fork_smoke_w1.json results/.fork_smoke_w8.json
	rm -f results/.fork_smoke_w1.json results/.fork_smoke_w8.json
	@echo "fork-smoke: speculative decisions byte-identical across fork worker counts"

# Performance-guideline gate: the guideline package's own tests (expression
# evaluation, violation feedback loop, report determinism), then the smoke
# matrix end-to-end through cmd/audit — the regenerated report must be
# byte-identical to the committed results/guideline_report.json, and the
# committed report must pass its self-consistency check (verdicts re-derived
# from the stored samples).
guideline-smoke:
	$(GO) test -count 1 ./internal/guideline
	$(GO) run ./cmd/audit -matrix smoke -quiet -cache -out results/.guideline_report.ci.json > /dev/null
	cmp results/.guideline_report.ci.json results/guideline_report.json
	rm -f results/.guideline_report.ci.json
	$(GO) run ./cmd/audit -check results/guideline_report.json

# Every committed performance baseline (BENCH_{sim,mpi,kb,fork,scale,pdes}.json)
# re-measured on this host and judged against its fixed bounds; every gate's
# verdict is printed, and any failure fails the target.
benchguard:
	$(GO) run ./cmd/bench -check all

# Zero-allocation pins for the mpi/nbc steady state (matching cycles and a
# full persistent-Ibcast iteration must stay at 0 allocs once pools are warm).
allocguard:
	$(GO) test -count 1 -run 'SteadyStateAllocs' ./internal/mpi ./internal/nbc

ci: build vet test race chaos-smoke kb-smoke guideline-smoke fork-smoke scale-smoke pdes-smoke benchguard allocguard
