# Tier-1+ verification for the live communication path.
#
# `make ci` is the check gate for changes touching the hot path: it runs the
# tier-1 verify (build + full test suite), vet, the race detector over the
# packages that exercise the transport ownership contract, a smoke run of
# the live-path profiling benchmarks and the wire kernels (1 iteration —
# catches benchmark bit-rot, not performance), and the metrics-overhead gate (alloc-free increments plus
# the <2% instrumentation bound on the live all-reduce). The byte-path packages
# are tested a second time under -tags purego, the build in which the portable
# kernel loops do all the work.

GO ?= go

.PHONY: ci build test vet purego race chaos bench-smoke metrics-overhead bench

ci: vet build test purego race chaos bench-smoke metrics-overhead

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The portable arm of the wire kernels (internal/wire/kernels.go): on amd64 the
# default build runs the assembly, so without this the Go loops that every
# other target relies on would only ever run as the NaN and tail fallback.
purego:
	$(GO) test -tags purego ./internal/wire/ ./tensor/ ./compress/ ./collective/

# ./transport/... is recursive: it covers the shared-memory rings
# (transport/shmnet), the two-tier composition and the cross-transport
# conformance suite alongside the mem and TCP transports. ./train/... covers
# the live tuner, which drives several engines' lifecycles back to back.
race: purego
	$(GO) test -race ./collective/... ./transport/... ./engine/... ./mpi/... ./metrics/... ./internal/sendpool/... ./internal/gradsync/... ./internal/packing/... ./internal/wire/... ./baseline/... ./fault/... ./train/... .

# Seeded chaos soak (DESIGN.md §8): the pipelined ring all-reduce under ~20
# randomized fault scenarios (crashes, partitions, drops, truncation, delay)
# across the mem and TCP transports, under the race detector, with
# hang-freedom, pool-balance and goroutine-balance enforced per seed.
# Reproduce one failure with: go test -race -run 'TestChaosSoakMem/seed=K' ./collective/
# The engine package contributes the priority-scheduler kill scenario (a rank
# dies mid-preemption; survivors classify the error and leak nothing) and the
# liveness run of the preemptive depths under delay-only chaos. The shm
# package contributes its wake tests: the exhaustive lost-wake-up model and
# the ring exchange that hangs, rather than slows, if a wake is lost.
chaos:
	$(GO) test -race -count=1 -short -run 'TestChaosSoak|TestAbort|TestPrioritySchedLiveness|TestShmWake' ./collective/ ./transport/chaos/ ./engine/ ./transport/shmnet/

bench-smoke:
	$(GO) test -run XXX -bench 'RingAllReduceShm|EngineIterationTCP|WireKernels|ShmPingPong' -benchtime 1x . ./internal/wire/ ./transport/shmnet/

# Observability cost gates (DESIGN.md §7, §8): the metric increment path must
# be allocation-free, full-stack instrumentation must cost <2% on the live
# ring all-reduce, and idle-only TCP liveness heartbeats must cost <5% on the
# busy path (min-of-trials A/B in both cases).
metrics-overhead:
	$(GO) test -run TestIncrementBenchmarksAllocFree -count=1 ./metrics/
	AIACC_OVERHEAD_GATE=1 $(GO) test -run 'TestMetricsOverheadGate|TestHeartbeatOverheadGate' -count=1 .

# The live performance numbers of record: the repository benchmark's four
# workloads (BENCHMARK.json, benchmark/README.md).
bench:
	bash benchmark/run.sh --all
