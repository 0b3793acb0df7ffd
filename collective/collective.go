// Package collective implements the collective communication primitives that
// AIACC-Training builds gradient aggregation on. The data collectives are four
// entry points over one segment-pipelined ring (pipeline.go):
//
//   - ReduceScatterCodec, the ring's first phase (paper Fig. 1a): rank r ends
//     holding the full reduction of its chunk, ChunkBounds(len, n, r);
//   - AllGatherCodec, the ring's second phase (Fig. 1b): every rank's chunk
//     reaches every rank;
//   - RingAllReduceCodec, the two phases back to back on one pipeline;
//   - HierarchicalAllReduceCodec, the paper's "tree" all-reduce, composed of
//     the same phases over node and cross-node sub-communicators.
//
// The two all-reduces also take data in several pieces, such as an all-reduce
// unit's fragments in their gradient tensors (RingAllReducePieces,
// HierarchicalAllReducePieces): the same ring over the pieces' concatenation,
// reduced where the pieces lie.
//
// Beside them sit the two control-plane collectives: BroadcastCodec (a
// binomial tree, for parameter sync) and AndAllReduceBits (the bit-wise AND
// all-reduce of the gradient synchronization vector).
//
// Every operation takes a stream id. Operations on distinct streams are fully
// independent and may run concurrently from different goroutines — this is
// the property the multi-streamed communication engine exploits. Concurrent
// operations on the *same* stream of the same communicator are not allowed;
// the caller must serialize them, as the engine's per-stream scheduler does.
package collective

import (
	"encoding/binary"
	"errors"
	"fmt"

	"aiacc/compress"
	"aiacc/internal/wire"
	"aiacc/mpi"
	"aiacc/tensor"
)

// ErrShortBuffer indicates a received payload did not match the expected
// size, i.e. ranks disagreed about the operation layout.
var ErrShortBuffer = errors.New("collective: payload size mismatch")

// chunkBounds returns the [lo, hi) element range of chunk i when data of
// length total is partitioned into n nearly-equal chunks.
func chunkBounds(total, n, i int) (int, int) {
	base := total / n
	rem := total % n
	lo := i*base + min(i, rem)
	size := base
	if i < rem {
		size++
	}
	return lo, lo + size
}

// ChunkBounds returns the [lo, hi) element range of rank's chunk when total
// elements are split across size ranks: the chunk ReduceScatterCodec leaves
// reduced on that rank and AllGatherCodec takes from it.
func ChunkBounds(total, size, rank int) (int, int) {
	return chunkBounds(total, size, rank)
}

// phases selects which halves of the pipelined ring an operation runs.
type phases uint8

const (
	phaseReduceScatter phases = 1 << iota
	phaseAllGather
	phaseAllReduce = phaseReduceScatter | phaseAllGather
)

// ring runs the selected phases of the segment-pipelined ring over data on
// one pipeline. Rank r owns chunk r: the reduce-scatter leaves it fully
// reduced there, and the all-gather starts from that postcondition. A
// reduce-scatter applies o.scale to the owned chunk; on one rank that chunk
// is all of data.
//
// data may lie in several pieces. The frames, chunk and segment bounds and
// the reduction order are those of the pieces' concatenation; only the
// codec and reduce calls split at piece boundaries, so the result is
// bit-identical to gathering the pieces, running the ring over the copy and
// scattering it back.
func ring(c Comm, stream int, data window, op tensor.ReduceOp, codec compress.Codec, ph phases, o options) error {
	if c.Size() == 1 || data.n == 0 {
		if ph&phaseReduceScatter != 0 && o.scale != 0 {
			scaleWindow(data, o.scale)
		}
		return nil
	}
	var p ringPipeline
	p.init(c, stream, data.n, codec, o)
	defer p.r.end()
	if ph&phaseReduceScatter != 0 {
		if err := p.reduceScatter(data, op); err != nil {
			return err
		}
	}
	if ph&phaseAllGather != 0 {
		return p.allGather(data)
	}
	return nil
}

// RingAllReduceCodec performs an in-place ring all-reduce of data across all
// members of c on the given stream, serializing chunks with the given codec
// (e.g. fp16 gradient compression). After it returns, every rank holds the
// element-wise reduction (op) of all ranks' inputs; the reduction itself is
// computed in fp32 after decoding. All ranks finish with bit-identical data
// even under a lossy codec (the all-gather folds the codec's quantization
// into the origin rank's local copy too).
//
// The algorithm is the bandwidth-optimal two-phase ring of Fig. 1:
// ReduceScatterCodec's n-1 steps, in which each rank forwards and reduces one
// chunk, followed by AllGatherCodec's n-1 steps broadcasting the
// fully-reduced chunks. Each rank sends 2(n-1)/n of the data in total.
//
// Each per-step chunk is cut into wire segments of WithSegmentBytes fp32
// data bytes (DefaultSegmentBytes unless overridden) and double-buffered
// through a pipelined sender, so decode+reduce of segment i overlaps the
// transfer of segment i+1 and each encode overlaps the in-flight send. In
// the all-gather phase, received payloads are forwarded verbatim — each
// reduced chunk is encoded exactly once, by its origin rank.
func RingAllReduceCodec(c Comm, stream int, data []float32, op tensor.ReduceOp, codec compress.Codec, opts ...Option) error {
	pieces := [1][]float32{data}
	return RingAllReducePieces(c, stream, pieces[:], op, codec, opts...)
}

// RingAllReducePieces is RingAllReduceCodec over data that lies in several
// pieces, such as an all-reduce unit's fragments in their gradient tensors:
// it all-reduces the pieces' concatenation in place, in the pieces, and the
// result is bit-identical to gathering them into one slice, running
// RingAllReduceCodec over it and scattering it back. Every rank must pass
// pieces of the same total length; where the pieces split it is each rank's
// own business.
func RingAllReducePieces(c Comm, stream int, pieces [][]float32, op tensor.ReduceOp, codec compress.Codec, opts ...Option) error {
	t0 := opStart()
	err := ring(c, stream, wholeWindow(pieces), op, codec, phaseAllReduce, buildOptions(opts))
	obsOp(mRing, t0)
	return Unwind(c, stream, err)
}

// ReduceScatterCodec reduces data element-wise across all members of c and
// leaves each rank holding the full reduction of its own chunk,
// data[ChunkBounds(len(data), c.Size(), c.Rank())], which it returns as a
// view into data. The other chunks of data are left partially reduced and
// must not be used. It is the first phase of RingAllReduceCodec run on its
// own, with the same segment pipelining and options.
func ReduceScatterCodec(c Comm, stream int, data []float32, op tensor.ReduceOp, codec compress.Codec, opts ...Option) ([]float32, error) {
	t0 := opStart()
	pieces := [1][]float32{data}
	err := ring(c, stream, wholeWindow(pieces[:]), op, codec, phaseReduceScatter, buildOptions(opts))
	obsOp(mReduceScatter, t0)
	if err = Unwind(c, stream, err); err != nil {
		return nil, err
	}
	lo, hi := chunkBounds(len(data), c.Size(), c.Rank())
	return data[lo:hi], nil
}

// AllGatherCodec distributes every rank's chunk of data in place: rank r
// contributes data[ChunkBounds(len(data), c.Size(), r)], and every rank ends
// holding every chunk. It is the second phase of RingAllReduceCodec run on
// its own: each chunk is encoded once, by its owner, and forwarded verbatim,
// and under a lossy codec the owner's copy is re-quantized as well, so all
// ranks finish bit-identical.
func AllGatherCodec(c Comm, stream int, data []float32, codec compress.Codec, opts ...Option) error {
	t0 := opStart()
	pieces := [1][]float32{data}
	err := ring(c, stream, wholeWindow(pieces[:]), tensor.OpSum, codec, phaseAllGather, buildOptions(opts))
	obsOp(mAllGather, t0)
	return Unwind(c, stream, err)
}

// BroadcastCodec distributes root's data to every member of c in place,
// using a binomial tree rooted at the given rank: O(log n) rounds, with the
// payload serialized by codec.
func BroadcastCodec(c *mpi.Comm, stream, root int, data []float32, codec compress.Codec) error {
	return Unwind(c, stream, broadcastCodec(c, stream, root, data, codec))
}

func broadcastCodec(c *mpi.Comm, stream, root int, data []float32, codec compress.Codec) error {
	n := c.Size()
	if n == 1 || len(data) == 0 {
		return nil
	}
	defer obsOp(mBroadcast, opStart())
	// Rotate ranks so the root is virtual rank 0, then run the classic
	// binomial tree: a rank receives from (vrank - mask) on the round where
	// its lowest set bit is reached, then forwards to (vrank + smaller
	// masks) in descending order.
	vrank := (c.Rank() - root + n) % n
	mask := 1
	for mask < n {
		if vrank&mask != 0 {
			parent := vrank ^ mask
			payload, err := c.Recv((parent+root)%n, stream)
			if err != nil {
				return fmt.Errorf("broadcast recv: %w", err)
			}
			err = codec.Decode(data, payload)
			recycleWire(payload)
			if err != nil {
				return fmt.Errorf("broadcast: %w", err)
			}
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		child := vrank + mask
		if child < n {
			// Each child gets its own buffer: the payload's ownership moves
			// to the child, which recycles it through the shared pool.
			buf := codec.EncodeTo(getWireCap(int(codec.WireBytes(len(data)))), data)
			if err := c.Send((child+root)%n, stream, buf); err != nil {
				return fmt.Errorf("broadcast send: %w", err)
			}
		}
	}
	return nil
}

// AndAllReduceBits performs an in-place all-reduce with bit-wise AND over a
// packed bit vector. This is the decentralized gradient-readiness agreement
// of §V-A: each worker contributes a vector with bit g set iff gradient g is
// locally ready; after the all-reduce, bit g survives iff *every* worker had
// it set (AND of 0/1 bits is the paper's min operator).
func AndAllReduceBits(c *mpi.Comm, stream int, bits []uint64) error {
	return Unwind(c, stream, andAllReduceBits(c, stream, bits))
}

func andAllReduceBits(c *mpi.Comm, stream int, bits []uint64) error {
	n := c.Size()
	if n == 1 || len(bits) == 0 {
		return nil
	}
	rank := c.Rank()
	next := (rank + 1) % n
	prev := (rank - 1 + n) % n

	// The vector is small (one bit per gradient), so a simple ring pipeline
	// on the whole vector beats chunking. Because AND is idempotent, n-1
	// circulate-and-AND steps suffice: after step s each rank holds the AND
	// of its own and its s+1 upstream neighbours' vectors.
	//
	// Each step sends before it receives. The vector is encoded into a ring
	// buffer that goes to the wire (the receiver owns it), and the payload
	// received on the same step, once folded into bits, goes back to the
	// ring as a later step's encode buffer. No per-step allocation.
	defer obsOp(mAndBits, opStart())
	size := 8 * len(bits)
	r := beginSeg(c, size)
	defer r.end()
	for step := 0; step < n-1; step++ {
		buf := wire.Grow(r.takeBuf(), size)
		wire.PutUint64s(buf, bits)
		if err := r.send(c, next, stream, buf); err != nil {
			return fmt.Errorf("bit all-reduce send step %d: %w", step, err)
		}
		payload, err := c.Recv(prev, stream)
		if err != nil {
			return fmt.Errorf("bit all-reduce recv step %d: %w", step, err)
		}
		if len(payload) != size {
			recycleWire(payload)
			return fmt.Errorf("%w: got %d bytes, want %d", ErrShortBuffer, len(payload), size)
		}
		for i := range bits {
			bits[i] &= binary.LittleEndian.Uint64(payload[8*i:])
		}
		r.giveBuf(payload)
	}
	if err := r.drain(); err != nil {
		return fmt.Errorf("bit all-reduce send: %w", err)
	}
	return nil
}

// HierarchicalAllReduceCodec is the paper's "tree all-reduce" (§V-B),
// realized as the Megatron-style two-level schedule: an intra-node
// reduce-scatter, a concurrent per-shard ring all-reduce across nodes, and an
// intra-node all-gather — the pipelined ring's phases composed over node and
// cross-node sub-communicators. It reduces cross-node traffic to
// 1/gpusPerNode of a flat ring and is selected by the auto-tuner when
// inter-node links are congested. The codec and options (segment
// pipelining) apply to every phase — in particular the cross-node shard
// rings, where overlapping codec work with the slower inter-node wire pays
// off most. WithScale is the exception: only the cross-node ring applies it.
//
// Each node reduce-scatters over its (fast, intra-host) lanes, leaving member
// j of every node with one fully reduced shard; the j-th shards then
// ring-all-reduce across nodes — every node member drives its own cross-node
// ring concurrently, instead of funneling gpusPerNode× the traffic through a
// single leader — and an intra-node all-gather distributes the result. The
// data is further split into two blocks pipelined against each other, so one
// block's (intra) reduce-scatter or all-gather overlaps the other block's
// (inter) cross-node ring: the two levels use disjoint peer sets, hence
// disjoint transport lanes, and on a two-tier network (transport.NewTwoTier)
// physically independent fabrics.
//
// Requires c's size to be an exact multiple of gpusPerNode (ranks laid out
// node-major, as mpi.Comm's NodeGroup assumes). Results are bit-identical
// across ranks, and — for exactly-representable sums — bit-identical to a
// leader-funnel hierarchy (intra ring, leader ring, broadcast).
func HierarchicalAllReduceCodec(c *mpi.Comm, stream, gpusPerNode int, data []float32, op tensor.ReduceOp, codec compress.Codec, opts ...Option) error {
	return HierarchicalAllReducePieces(c, stream, gpusPerNode, [][]float32{data}, op, codec, opts...)
}

// HierarchicalAllReducePieces is HierarchicalAllReduceCodec over data that
// lies in several pieces, as RingAllReducePieces is to RingAllReduceCodec:
// the same schedule over the pieces' concatenation, bit-identical to the
// gathered copy.
func HierarchicalAllReducePieces(c *mpi.Comm, stream, gpusPerNode int, pieces [][]float32, op tensor.ReduceOp, codec compress.Codec, opts ...Option) error {
	// The phases unwind within their sub-communicators; the outer unwind over
	// the full communicator is what carries a failure across phase boundaries
	// (e.g. to ranks already parked in the next phase).
	return Unwind(c, stream, hierarchicalAllReduce(c, stream, gpusPerNode, wholeWindow(pieces), op, codec, buildOptions(opts)))
}

// twoLevelPipelineMin is the smallest element count worth splitting into two
// pipelined blocks; below it the extra phase launches cost more than the
// intra/inter overlap recovers.
const twoLevelPipelineMin = 4096

func hierarchicalAllReduce(c *mpi.Comm, stream, gpusPerNode int, data window, op tensor.ReduceOp, codec compress.Codec, o options) error {
	if c.Size() == 1 || data.n == 0 {
		return ring(c, stream, data, op, codec, phaseAllReduce, o)
	}
	if gpusPerNode <= 0 {
		return fmt.Errorf("%w: gpusPerNode %d", mpi.ErrBadGroup, gpusPerNode)
	}
	if c.Size()%gpusPerNode != 0 {
		return fmt.Errorf("%w: size %d is not divisible by gpusPerNode %d: hierarchical all-reduce needs equally sized nodes",
			mpi.ErrBadGroup, c.Size(), gpusPerNode)
	}
	defer obsOp(mHierarchical, opStart())
	if gpusPerNode == 1 {
		// Every rank is its own node: the cross-node level IS the flat ring.
		return ring(c, stream, data, op, codec, phaseAllReduce, o)
	}
	node, err := c.NodeGroup(gpusPerNode)
	if err != nil {
		return fmt.Errorf("hierarchical all-reduce node group: %w", err)
	}
	if node.Size() == c.Size() {
		// Single node: the intra level is the whole reduction.
		return ring(node, stream, data, op, codec, phaseAllReduce, o)
	}
	cross, err := c.CrossNodeGroup(gpusPerNode)
	if err != nil {
		return fmt.Errorf("hierarchical all-reduce cross group: %w", err)
	}
	return twoLevelAllReduce(node, cross, stream, data, op, codec, o)
}

// twoLevelAllReduce runs the pipelined two-level schedule over the node and
// cross-node sub-communicators:
//
//	RS(b0); RS(b1) ∥ X(b0); AG(b0) ∥ X(b1); AG(b1)
//
// where RS/AG are intra-node reduce-scatter/all-gather over blocks b of the
// data and X is the cross-node ring all-reduce of the block's owned shard.
// Intra phases run on this goroutine, inter phases on one worker goroutine,
// so each tier issues its lanes' frames in deterministic order (the FIFO
// matching the transports require) while the two tiers overlap. Only X
// applies o.scale: each element is scaled once, by its cross-node owner.
func twoLevelAllReduce(node, cross *mpi.Comm, stream int, data window, op tensor.ReduceOp, codec compress.Codec, o options) error {
	intra := o
	intra.scale = 0
	blocks := 2
	if data.n < twoLevelPipelineMin {
		blocks = 1
	}

	// The worker pulls shard jobs in block order; results come back in the
	// same order on done. Channel capacities cover every block, so neither
	// side ever blocks on the channels themselves.
	reqs := make(chan window, blocks)
	done := make(chan error, blocks)
	go func() {
		for shard := range reqs {
			done <- Unwind(cross, stream, ring(cross, stream, shard, op, codec, phaseAllReduce, o))
		}
	}()
	issued := 0
	var firstErr error
	for b := 0; b < blocks; b++ {
		lo, hi := chunkBounds(data.n, blocks, b)
		blk := data.slice(lo, hi)
		if err := ring(node, stream, blk, op, codec, phaseReduceScatter, intra); err != nil {
			firstErr = fmt.Errorf("hierarchical all-reduce intra reduce-scatter block %d: %w", b, err)
			break
		}
		cLo, cHi := chunkBounds(blk.n, node.Size(), node.Rank())
		reqs <- blk.slice(cLo, cHi)
		issued++
	}
	close(reqs)
	// Collect each block's cross-node result in order, gathering block b
	// while the worker reduces block b+1. On failure, every issued shard is
	// still drained before returning: the worker goroutine must not outlive
	// this call while holding slices of the caller's data. The drain cannot
	// hang: the shard ring already unwound the failing sub-communicator, and
	// the outer Unwind of any failing rank poisons all its lanes, so
	// in-flight shards resolve rather than block (op deadlines backstop).
	for b := 0; b < issued; b++ {
		if err := <-done; err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("hierarchical all-reduce inter shard block %d: %w", b, err)
			}
			continue
		}
		if firstErr != nil {
			continue
		}
		lo, hi := chunkBounds(data.n, blocks, b)
		if err := ring(node, stream, data.slice(lo, hi), op, codec, phaseAllGather, intra); err != nil {
			firstErr = fmt.Errorf("hierarchical all-reduce intra all-gather block %d: %w", b, err)
		}
	}
	return firstErr
}
