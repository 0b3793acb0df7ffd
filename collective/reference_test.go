package collective

import (
	"fmt"

	"aiacc/compress"
	"aiacc/mpi"
	"aiacc/tensor"
)

// Test oracles: the serial ring all-reduce the pipelined ring replaced and
// the leader-funnel hierarchy the two-level schedule replaced. Production
// code never calls them; the property tests pin the production collectives
// to them bit for bit.

// ringAllReduceReference is the serial pre-pipelining ring all-reduce: one
// wire frame per ring step, the whole chunk decoded into scratch before
// tensor.ReduceOp.Apply reduces it, and an all-gather that decodes
// and re-encodes every received chunk. Chunk ownership (rank r ends the
// reduce-scatter owning chunk r) and hence the order of every fp32 addition
// match the pipelined ring, so under a lossless codec the two must agree bit
// for bit.
func ringAllReduceReference(c *mpi.Comm, stream int, data []float32, op tensor.ReduceOp, codec compress.Codec) error {
	return Unwind(c, stream, ringAllReduceSerial(c, stream, data, op, codec))
}

func ringAllReduceSerial(c *mpi.Comm, stream int, data []float32, op tensor.ReduceOp, codec compress.Codec) error {
	n := c.Size()
	if n == 1 || len(data) == 0 {
		return nil
	}
	rank := c.Rank()
	next := (rank + 1) % n
	prev := (rank - 1 + n) % n

	r := beginSeg(c, int(codec.WireBytes(len(data)/n+1)))
	defer r.end()
	// One decode scratch of max-chunk size serves every step.
	fp := getF32(len(data)/n + 1)
	defer putF32(fp)

	for step := 0; step < n-1; step++ {
		sLo, sHi := chunkBounds(len(data), n, (rank-step-1+n)%n)
		rLo, rHi := chunkBounds(len(data), n, (rank-step-2+2*n)%n)

		if err := r.send(c, next, stream, codec.EncodeTo(r.takeBuf(), data[sLo:sHi])); err != nil {
			return fmt.Errorf("reference reduce-scatter send step %d: %w", step, err)
		}
		payload, err := c.Recv(prev, stream)
		if err != nil {
			return fmt.Errorf("reference reduce-scatter recv step %d: %w", step, err)
		}
		tmp := (*fp)[:rHi-rLo]
		err = codec.Decode(tmp, payload)
		r.giveBuf(payload)
		if err != nil {
			return fmt.Errorf("reference reduce-scatter step %d: %w", step, err)
		}
		if err := op.Apply(data[rLo:rHi], tmp); err != nil {
			return fmt.Errorf("reference reduce-scatter reduce step %d: %w", step, err)
		}
	}

	for step := 0; step < n-1; step++ {
		sLo, sHi := chunkBounds(len(data), n, (rank-step+n)%n)
		rLo, rHi := chunkBounds(len(data), n, (rank-step-1+n)%n)

		if err := r.send(c, next, stream, codec.EncodeTo(r.takeBuf(), data[sLo:sHi])); err != nil {
			return fmt.Errorf("reference all-gather send step %d: %w", step, err)
		}
		payload, err := c.Recv(prev, stream)
		if err != nil {
			return fmt.Errorf("reference all-gather recv step %d: %w", step, err)
		}
		err = codec.Decode(data[rLo:rHi], payload)
		r.giveBuf(payload)
		if err != nil {
			return fmt.Errorf("reference all-gather step %d: %w", step, err)
		}
	}
	if err := r.drain(); err != nil {
		return fmt.Errorf("reference send: %w", err)
	}
	return nil
}

// hierarchicalReference is the serial three-phase hierarchy — intra-node
// ring all-reduce, leader-only ring across nodes, intra-node broadcast — the
// leader-funnel design the two-level schedule replaced.
func hierarchicalReference(c *mpi.Comm, stream, gpusPerNode int, data []float32, op tensor.ReduceOp, codec compress.Codec) error {
	return Unwind(c, stream, hierarchicalSerial(c, stream, gpusPerNode, data, op, codec))
}

func hierarchicalSerial(c *mpi.Comm, stream, gpusPerNode int, data []float32, op tensor.ReduceOp, codec compress.Codec) error {
	if c.Size() == 1 || len(data) == 0 {
		return nil
	}
	node, err := c.NodeGroup(gpusPerNode)
	if err != nil {
		return fmt.Errorf("reference hierarchy node group: %w", err)
	}
	if err := RingAllReduceCodec(node, stream, data, op, codec); err != nil {
		return fmt.Errorf("reference hierarchy intra: %w", err)
	}
	if node.Rank() == 0 {
		var ranks []int // each node's first rank: 0, g, 2g, ...
		for g := 0; g < c.Size(); g += gpusPerNode {
			ranks = append(ranks, g)
		}
		leaders, err := c.Subgroup(ranks)
		if err != nil {
			return fmt.Errorf("reference hierarchy leader group: %w", err)
		}
		if err := RingAllReduceCodec(leaders, stream, data, op, codec); err != nil {
			return fmt.Errorf("reference hierarchy inter: %w", err)
		}
	}
	if err := BroadcastCodec(node, stream, 0, data, codec); err != nil {
		return fmt.Errorf("reference hierarchy broadcast: %w", err)
	}
	return nil
}
