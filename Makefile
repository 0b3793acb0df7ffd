# Tier-1+ verification for the live communication path.
#
# `make ci` is the check gate for changes touching the hot path: it runs the
# tier-1 verify (build + full test suite), a gofmt gate, vet, the race detector over the
# packages that exercise the transport ownership contract, ten seconds of
# fuzzing of the frame tagger, a smoke run of
# the live-path profiling benchmarks and the wire kernels (1 iteration —
# catches benchmark bit-rot, not performance), and the metrics-overhead gate (alloc-free increments plus
# the <2% instrumentation bound on the live all-reduce). The byte-path packages
# are tested a second time under -tags purego, the build in which the portable
# kernel loops do all the work, and the virtual-time tests run under
# GOEXPERIMENT=synctest. Last, the benchmark module is vetted and tested.

GO ?= go

.PHONY: ci fmt build test vet purego race chaos vtime fuzz-smoke bench-smoke metrics-overhead bench-module bench

ci: fmt vet build test purego race chaos vtime fuzz-smoke bench-smoke metrics-overhead bench-module

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Every root-module file must be gofmt-clean. The list comes from the root
# module's package directories (gofmt on a directory would recurse into the
# nested benchmark/ module, which has its own gates).
fmt:
	@out=$$(for d in $$($(GO) list -f '{{.Dir}}' ./...); do gofmt -l $$d/*.go; done); \
	if [ -n "$$out" ]; then echo "gofmt -w needed on:"; echo "$$out"; exit 1; fi

# The portable arm of the wire kernels (internal/wire/kernels.go): on amd64 the
# default build runs the assembly, so without this the Go loops that every
# other target relies on would only ever run as the NaN and tail fallback.
purego:
	$(GO) test -tags purego ./internal/wire/ ./tensor/ ./compress/ ./collective/

# ./transport/... is recursive: it covers the shared-memory rings
# (transport/shmnet), the two-tier composition and the cross-transport
# conformance suite alongside the mem and TCP transports. ./train/... covers
# the live tuner, which drives several engines' lifecycles back to back.
# ./perseus/... runs a training session over a NewTCPWorker mesh end to end.
race: purego
	$(GO) test -race ./collective/... ./transport/... ./engine/... ./mpi/... ./metrics/... ./internal/sendpool/... ./internal/gradsync/... ./internal/packing/... ./internal/wire/... ./baseline/... ./fault/... ./train/... ./perseus/... .

# Seeded chaos soak (DESIGN.md §8): the pipelined ring all-reduce under ~20
# randomized fault scenarios (crashes, partitions, drops, truncation, delay)
# across the mem and TCP transports, under the race detector, with
# hang-freedom, pool-balance and goroutine-balance enforced per seed.
# Reproduce one failure with: go test -race -run 'TestChaosSoakMem/seed=K' ./collective/
# The engine package contributes the priority-scheduler kill scenario (a rank
# dies mid-preemption; survivors classify the error and leak nothing) and the
# liveness run of the preemptive depths under delay-only chaos. The shm
# package contributes its wake tests: the exhaustive lost-wake-up model and
# the ring exchange that hangs, rather than slows, if a wake is lost (one of
# its streams on lent and reserved frames), and its borrow lifecycle tests:
# lends and reservations ended once, refused while held, drained by Close
# and by an abort, and the skip word at every ring offset; and a receive
# that fails mid-frame, which fails its lane side for good.
chaos:
	$(GO) test -race -count=1 -short -run 'TestChaosSoak|TestAbort|TestPrioritySchedLiveness|TestShmWake|TestShmLend|TestShmRecvMidFrame' ./collective/ ./transport/chaos/ ./engine/ ./transport/shmnet/

# Virtual-time tests (internal/vtime, DESIGN.md §8): the real engine over
# memnet's modelled link inside a testing/synctest bubble, which Go 1.24 ships
# only under this experiment. Tier-1 does not set it and never builds them.
vtime:
	GOEXPERIMENT=synctest $(GO) test -count=1 -run VTime ./...

# Ten seconds of native fuzzing of the frame tagger's receive path
# (engine FuzzPlexRecv): arbitrary frames, short ones and arbitrary tags
# included, must come back whole or as the lane's sticky error. The test
# target runs its seed corpus alone; this one searches beyond it.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzPlexRecv -fuzztime 10s ./engine/

bench-smoke:
	$(GO) test -run XXX -bench 'RingAllReduceShm|EngineIterationTCP|WireKernels|ShmPingPong' -benchtime 1x . ./internal/wire/ ./transport/shmnet/

# Observability cost gates (DESIGN.md §7, §8): the metric increment path must
# be allocation-free, full-stack instrumentation must cost <2% on the live
# ring all-reduce, and idle-only TCP liveness heartbeats must cost <5% on the
# busy path (median of interleaved on/off pairs in both cases).
metrics-overhead:
	$(GO) test -run TestIncrementBenchmarksAllocFree -count=1 ./metrics/
	AIACC_OVERHEAD_GATE=1 $(GO) test -run 'TestMetricsOverheadGate|TestHeartbeatOverheadGate' -count=1 .

# The benchmark is a nested module that the root ./... does not reach: vet
# and test it on its own. Its tests run the smoke workload and check
# BENCHMARK.json against the program's workloads and metrics.
bench-module:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# The live performance numbers of record: the repository benchmark's four
# workloads (BENCHMARK.json, benchmark/README.md).
bench:
	bash benchmark/run.sh --all
