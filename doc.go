// Package aiacc is a from-scratch Go reproduction of AIACC-Training
// (ICDCS 2022): Alibaba's unified gradient-communication library for
// distributed deep learning, built around multi-streamed concurrent
// all-reduce and fully decentralized gradient synchronization.
//
// The repository has two halves that share the same algorithms:
//
//   - A live communication library: real collectives (reduce-scatter,
//     all-gather, ring and hierarchical all-reduce over one pipelined ring,
//     broadcast, bit-vector agreement) moving real float32 gradients over
//     goroutine channels, TCP sockets or shared memory, driven by the
//     engine in package engine and surfaced through the Horovod-compatible
//     API in package perseus.
//
//   - A discrete-event cluster simulator (package cluster over
//     internal/sim) that models V100 nodes, NVLink, 30 Gbps VPC TCP and
//     RDMA links with the paper's measured single-stream efficiency
//     ceilings, and regenerates every table and figure of the paper's
//     evaluation (internal/bench, cmd/aiacc-bench).
//
// Start with README.md, the examples/ directory, and DESIGN.md for the
// system inventory and experiment index. The benchmarks in bench_test.go
// regenerate one paper artifact each; the live engine's performance is
// measured by the repository benchmark (benchmark/run.sh).
package aiacc
