# Tier-1+ verification for the live communication path.
#
# `make ci` is the check gate for changes touching the hot path: it runs the
# tier-1 verify (build + full test suite), vet, the race detector over the
# packages that exercise the transport ownership contract, a smoke run of
# the live/codec/TCP/shm microbenchmarks (1 iteration — catches benchmark bit-rot,
# not performance), and the metrics-overhead gate (alloc-free increments plus
# the <2% instrumentation bound on the live all-reduce). The byte-path packages
# are tested a second time under -tags purego, the build in which the portable
# kernel loops do all the work.

GO ?= go

.PHONY: ci build test vet purego race chaos bench-smoke metrics-overhead bench bench-tcp bench-seg bench-shm bench-priority

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
# conformance suite alongside the mem and TCP transports.
race: purego
	$(GO) test -race ./collective/... ./transport/... ./engine/... ./mpi/... ./metrics/... ./internal/sendpool/... ./internal/gradsync/... ./internal/packing/... ./internal/wire/... ./baseline/... ./fault/... .

# Seeded chaos soak (DESIGN.md §8): the pipelined ring all-reduce under ~20
# randomized fault scenarios (crashes, partitions, drops, truncation, delay)
# across the mem and TCP transports, under the race detector, with
# hang-freedom, pool-balance and goroutine-balance enforced per seed.
# Reproduce one failure with: go test -race -run 'TestChaosSoakMem/seed=K' ./collective/
# The engine package contributes the priority-scheduler kill scenario (a rank
# dies mid-preemption; survivors classify the error and leak nothing) and the
# liveness run of the preemptive depths under delay-only chaos.
chaos:
	$(GO) test -race -count=1 -short -run 'TestChaosSoak|TestAbort|TestPrioritySchedLiveness' ./collective/ ./transport/chaos/ ./engine/

bench-smoke:
	$(GO) test -run XXX -bench 'Live|Codec|TCP|Shm|Transport|WireKernels' -benchtime 1x . ./internal/wire/

# Observability cost gates (DESIGN.md §7, §8): the metric increment path must
# be allocation-free, full-stack instrumentation must cost <2% on the live
# ring all-reduce, and idle-only TCP liveness heartbeats must cost <5% on the
# busy path (min-of-trials A/B in both cases).
metrics-overhead:
	$(GO) test -run TestIncrementBenchmarksAllocFree -count=1 ./metrics/
	AIACC_OVERHEAD_GATE=1 $(GO) test -run 'TestMetricsOverheadGate|TestHeartbeatOverheadGate' -count=1 .

# Full live-path benchmark numbers (recorded in BENCH_pr1.json and, for the
# TCP data plane, BENCH_pr2.json).
bench:
	$(GO) test -run XXX -bench 'Live|Codec|TCP' -benchtime 200x .

# Just the real-socket data plane (the BENCH_pr2.json numbers).
bench-tcp:
	$(GO) test -run XXX -bench TCP -benchtime 200x .

# Pipelined segmented ring same-binary A/B: serial reference vs pipelined
# arms over real TCP with the fp16 codec (the BENCH_pr4.json numbers).
bench-seg:
	$(GO) test -run XXX -bench 'BenchmarkRingAllReduceTCP/4ranks/.*elems/fp16' -benchtime 30x -count 3 .

# Shared-memory vs TCP-loopback same-binary A/B (the BENCH_pr6.json numbers):
# raw one-way throughput and round-trip latency per transport, the 4-rank ring
# all-reduce over both data planes, and the aiacc-bench table variants of the
# same experiments (shm-loopback, hierarchy two-level vs flat ring).
bench-shm:
	$(GO) test -run XXX -bench 'BenchmarkTransportLoopback|BenchmarkTransportPingPong|BenchmarkRingAllReduceShm|BenchmarkRingAllReduceTCP/4ranks/[0-9]+elems$$' -benchtime 100x -count 3 .
	$(GO) run ./cmd/aiacc-bench -experiment shm-loopback -metrics=false
	$(GO) run ./cmd/aiacc-bench -experiment hierarchy -metrics=false

# Priority-scheduler live A/B (the BENCH_pr7.json numbers): scheduler off vs
# depth=4 over the skewed (CTR-like) and uniform (BERT-like) profiles on a
# rate-modelled slow link, with the next-forward stall as the headline metric.
bench-priority:
	$(GO) run ./cmd/aiacc-bench -experiment priority
