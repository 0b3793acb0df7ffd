package collective

import (
	"math"
	"testing"

	"aiacc/compress"
	"aiacc/mpi"
	"aiacc/tensor"
)

// Tests of the pipelined ring's two phases run on their own:
// ReduceScatterCodec and AllGatherCodec.

func TestReduceScatter(t *testing.T) {
	for _, size := range []int{1, 2, 3, 4, 8} {
		for _, elems := range []int{1, 7, 64, 100} {
			runRanks(t, size, 1, func(c *mpi.Comm) error {
				data := make([]float32, elems)
				for i := range data {
					data[i] = float32(c.Rank() + i)
				}
				chunk, err := ReduceScatterCodec(c, 0, data, tensor.OpSum, compress.FP32{})
				if err != nil {
					return err
				}
				lo, hi := ChunkBounds(elems, size, c.Rank())
				if len(chunk) != hi-lo {
					t.Errorf("size=%d elems=%d rank=%d: chunk len %d, want %d",
						size, elems, c.Rank(), len(chunk), hi-lo)
					return nil
				}
				for j, v := range chunk {
					i := lo + j
					want := float32(size*(size-1)/2 + i*size)
					if math.Abs(float64(v-want)) > 1e-3 {
						t.Errorf("size=%d elems=%d rank=%d: chunk[%d] = %v, want %v",
							size, elems, c.Rank(), j, v, want)
						return nil
					}
				}
				return nil
			})
		}
	}
}

func TestReduceScatterMatchesAllReducePrefix(t *testing.T) {
	// The scattered chunk must equal the same range of an all-reduce.
	const size, elems = 4, 37
	runRanks(t, size, 2, func(c *mpi.Comm) error {
		mk := func() []float32 {
			data := make([]float32, elems)
			for i := range data {
				data[i] = float32((c.Rank()+1)*(i+1)) * 0.25
			}
			return data
		}
		ref := mk()
		if err := RingAllReduceCodec(c, 0, ref, tensor.OpSum, compress.FP32{}); err != nil {
			return err
		}
		data := mk()
		chunk, err := ReduceScatterCodec(c, 1, data, tensor.OpSum, compress.FP32{})
		if err != nil {
			return err
		}
		lo, _ := ChunkBounds(elems, size, c.Rank())
		for j, v := range chunk {
			if math.Abs(float64(v-ref[lo+j])) > 1e-4 {
				t.Errorf("rank %d: chunk[%d] = %v, all-reduce ref %v", c.Rank(), j, v, ref[lo+j])
				return nil
			}
		}
		return nil
	})
}

func TestReduceScatterFP16(t *testing.T) {
	runRanks(t, 3, 1, func(c *mpi.Comm) error {
		data := make([]float32, 50)
		for i := range data {
			data[i] = float32(c.Rank()) + 0.5
		}
		chunk, err := ReduceScatterCodec(c, 0, data, tensor.OpSum, compress.FP16{})
		if err != nil {
			return err
		}
		for j, v := range chunk {
			if math.Abs(float64(v)-4.5) > 0.01 { // (0.5+1.5+2.5)
				t.Errorf("rank %d chunk[%d] = %v, want 4.5", c.Rank(), j, v)
				return nil
			}
		}
		return nil
	})
}

// Every rank's chunk reaches every rank; chunks may be empty (fewer elements
// than ranks) and segments smaller than a chunk.
func TestAllGather(t *testing.T) {
	for _, size := range []int{1, 2, 3, 5, 8} {
		for _, elems := range []int{3, 64, 1000} {
			for _, seg := range []int64{1 << 30, 64} {
				runRanks(t, size, 1, func(c *mpi.Comm) error {
					data := make([]float32, elems)
					for i := range data {
						data[i] = float32(math.NaN()) // overwritten unless owned
					}
					lo, hi := ChunkBounds(elems, size, c.Rank())
					for i := lo; i < hi; i++ {
						data[i] = float32(100*c.Rank() + i)
					}
					if err := AllGatherCodec(c, 0, data, compress.FP32{}, WithSegmentBytes(seg)); err != nil {
						return err
					}
					for r := 0; r < size; r++ {
						lo, hi := ChunkBounds(elems, size, r)
						for i := lo; i < hi; i++ {
							if want := float32(100*r + i); data[i] != want {
								t.Errorf("size=%d elems=%d seg=%d rank=%d: data[%d] = %v, want %v",
									size, elems, seg, c.Rank(), i, data[i], want)
								return nil
							}
						}
					}
					return nil
				})
			}
		}
	}
}

// The all-reduce is its two phases composed: reduce-scatter then all-gather
// on the same data gives the all-reduce bit for bit, under the lossless and
// the lossy codec alike.
func TestPhasesComposeToAllReduce(t *testing.T) {
	for _, codec := range []compress.Codec{compress.FP32{}, compress.FP16{}} {
		for _, size := range []int{2, 3, 5} {
			runRanks(t, size, 1, func(c *mpi.Comm) error {
				mk := func() []float32 {
					data := make([]float32, 777)
					for i := range data {
						data[i] = 0.001*float32(i%97) + 0.0001*float32(c.Rank())
					}
					return data
				}
				want := mk()
				if err := RingAllReduceCodec(c, 0, want, tensor.OpSum, codec, WithSegmentBytes(256)); err != nil {
					return err
				}
				got := mk()
				if _, err := ReduceScatterCodec(c, 0, got, tensor.OpSum, codec, WithSegmentBytes(256)); err != nil {
					return err
				}
				if err := AllGatherCodec(c, 0, got, codec, WithSegmentBytes(256)); err != nil {
					return err
				}
				for i := range got {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Errorf("%T size=%d rank=%d: data[%d] = %v, all-reduce %v",
							codec, size, c.Rank(), i, got[i], want[i])
						return nil
					}
				}
				return nil
			})
		}
	}
}

func TestChunkBoundsExported(t *testing.T) {
	total := 0
	for r := 0; r < 5; r++ {
		lo, hi := ChunkBounds(23, 5, r)
		if lo != total {
			t.Errorf("rank %d chunk not contiguous: lo=%d want %d", r, lo, total)
		}
		total = hi
	}
	if total != 23 {
		t.Errorf("chunks cover %d of 23", total)
	}
}
