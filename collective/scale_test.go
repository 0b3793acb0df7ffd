package collective

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"aiacc/compress"
	"aiacc/mpi"
	"aiacc/tensor"
)

// scaleLoop is the specification WithScale is held to: the unscaled result
// followed by a scalar x *= f.
func scaleLoop(x []float32, f float32) {
	for i := range x {
		x[i] *= f
	}
}

// scaleInput is rank's input: normal values, so sums round and 1/n scales
// inexactly, and any second scale changes the result.
func scaleInput(rank, elems int) []float32 {
	rng := rand.New(rand.NewSource(int64(1000*rank + elems)))
	data := make([]float32, elems)
	for i := range data {
		data[i] = float32(rng.NormFloat64())
	}
	return data
}

// sameBits reports the first index where equal-length got and want differ
// bitwise, or -1.
func sameBits(got, want []float32) int {
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return i
		}
	}
	return -1
}

// Under fp32 every entry point with WithScale(1/n) equals the unscaled call
// followed by x *= 1/n, bit for bit: each element is scaled exactly once, by
// its owner, after it is fully reduced. AllGatherCodec reduces nothing and
// does not scale. Covers world sizes where 1/n is inexact, lengths below n
// (empty chunks), segments of one and two elements, and the hierarchical
// schedule's flat, two-level and single-node paths — a scale in the
// intra-node phases as well as the cross-node ring fails here.
func TestScaleMatchesSumThenScale(t *testing.T) {
	codec := compress.FP32{}
	for size := 1; size <= 8; size++ {
		f := float32(1) / float32(size)
		perNodes := []int{1, size}
		if size%2 == 0 && size > 2 {
			perNodes = append(perNodes, 2)
		}
		for _, elems := range []int{size - 1, 37, 5000} {
			segs := []int64{4, 8, 1024, DefaultSegmentBytes}
			if elems > 1000 {
				segs = segs[2:] // one-element segments of a long buffer add nothing but frames
			}
			for _, seg := range segs {
				name := fmt.Sprintf("size=%d elems=%d seg=%d", size, elems, seg)
				runRanks(t, size, 1, func(c *mpi.Comm) error {
					check := func(entry string, got, want []float32) {
						if len(got) != len(want) {
							t.Errorf("%s %s rank %d: %d elements, want %d", name, entry, c.Rank(), len(got), len(want))
						} else if i := sameBits(got, want); i >= 0 {
							t.Errorf("%s %s rank %d: element %d = %v, sum then scale %v",
								name, entry, c.Rank(), i, got[i], want[i])
						}
					}
					segOpt := WithSegmentBytes(seg)

					want := scaleInput(c.Rank(), elems)
					if err := RingAllReduceCodec(c, 0, want, tensor.OpSum, codec, segOpt); err != nil {
						return err
					}
					scaleLoop(want, f)
					got := scaleInput(c.Rank(), elems)
					if err := RingAllReduceCodec(c, 0, got, tensor.OpSum, codec, segOpt, WithScale(f)); err != nil {
						return err
					}
					check("RingAllReduceCodec", got, want)

					want = scaleInput(c.Rank(), elems)
					wantChunk, err := ReduceScatterCodec(c, 0, want, tensor.OpSum, codec, segOpt)
					if err != nil {
						return err
					}
					scaleLoop(wantChunk, f)
					got = scaleInput(c.Rank(), elems)
					gotChunk, err := ReduceScatterCodec(c, 0, got, tensor.OpSum, codec, segOpt, WithScale(f))
					if err != nil {
						return err
					}
					check("ReduceScatterCodec", gotChunk, wantChunk)

					want = scaleInput(c.Rank(), elems)
					if err := AllGatherCodec(c, 0, want, codec, segOpt); err != nil {
						return err
					}
					got = scaleInput(c.Rank(), elems)
					if err := AllGatherCodec(c, 0, got, codec, segOpt, WithScale(f)); err != nil {
						return err
					}
					check("AllGatherCodec", got, want)

					for _, perNode := range perNodes {
						want = scaleInput(c.Rank(), elems)
						if err := HierarchicalAllReduceCodec(c, 0, perNode, want, tensor.OpSum, codec, segOpt); err != nil {
							return err
						}
						scaleLoop(want, f)
						got = scaleInput(c.Rank(), elems)
						if err := HierarchicalAllReduceCodec(c, 0, perNode, got, tensor.OpSum, codec, segOpt, WithScale(f)); err != nil {
							return err
						}
						check(fmt.Sprintf("HierarchicalAllReduceCodec perNode=%d", perNode), got, want)
					}
					return nil
				})
			}
		}
	}
}

// Under fp16 the all-gather carries the scaled values; every rank must still
// finish bit-identical, through the flat ring and the two-level schedule.
func TestScaleFP16BitIdenticalAcrossRanks(t *testing.T) {
	codec := compress.FP16{}
	for _, tc := range []struct{ size, perNode int }{{3, 1}, {4, 2}, {6, 3}, {8, 2}} {
		for _, elems := range []int{2, 777, 5000} {
			f := float32(1) / float32(tc.size)
			ring := make([][]float32, tc.size)
			hier := make([][]float32, tc.size)
			runRanks(t, tc.size, 1, func(c *mpi.Comm) error {
				a := scaleInput(c.Rank(), elems)
				if err := RingAllReduceCodec(c, 0, a, tensor.OpSum, codec, WithSegmentBytes(256), WithScale(f)); err != nil {
					return err
				}
				b := scaleInput(c.Rank(), elems)
				if err := HierarchicalAllReduceCodec(c, 0, tc.perNode, b, tensor.OpSum, codec, WithSegmentBytes(256), WithScale(f)); err != nil {
					return err
				}
				ring[c.Rank()], hier[c.Rank()] = a, b
				return nil
			})
			for r := 1; r < tc.size; r++ {
				if i := sameBits(ring[r], ring[0]); i >= 0 {
					t.Errorf("size=%d elems=%d ring: rank %d element %d = %v, rank 0 %v", tc.size, elems, r, i, ring[r][i], ring[0][i])
				}
				if i := sameBits(hier[r], hier[0]); i >= 0 {
					t.Errorf("size=%d perNode=%d elems=%d hierarchical: rank %d element %d = %v, rank 0 %v",
						tc.size, tc.perNode, elems, r, i, hier[r][i], hier[0][i])
				}
			}
		}
	}
}
