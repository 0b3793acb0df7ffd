package collective

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"aiacc/compress"
	"aiacc/mpi"
	"aiacc/tensor"
	"aiacc/transport"
)

// runRanks executes fn once per rank on a fresh mem network and fails the
// test on any returned error.
func runRanks(t *testing.T, size, streams int, fn func(c *mpi.Comm) error) {
	t.Helper()
	net, err := transport.NewMem(size, streams)
	if err != nil {
		t.Fatalf("NewMem: %v", err)
	}
	runNetRanks(t, net, fn)
}

// runNetRanks executes fn once per rank of net, fails the test on any
// returned error and closes net.
func runNetRanks(t *testing.T, net transport.Network, fn func(c *mpi.Comm) error) {
	t.Helper()
	defer func() { _ = net.Close() }()
	size := net.Size()
	var wg sync.WaitGroup
	errc := make(chan error, size)
	for r := 0; r < size; r++ {
		ep, err := net.Endpoint(r)
		if err != nil {
			t.Fatalf("Endpoint(%d): %v", r, err)
		}
		wg.Add(1)
		go func(ep transport.Endpoint) {
			defer wg.Done()
			if err := fn(mpi.NewWorld(ep)); err != nil {
				errc <- err
			}
		}(ep)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

func TestChunkBounds(t *testing.T) {
	tests := []struct {
		total, n int
		want     [][2]int
	}{
		{total: 10, n: 3, want: [][2]int{{0, 4}, {4, 7}, {7, 10}}},
		{total: 9, n: 3, want: [][2]int{{0, 3}, {3, 6}, {6, 9}}},
		{total: 2, n: 4, want: [][2]int{{0, 1}, {1, 2}, {2, 2}, {2, 2}}},
		{total: 0, n: 2, want: [][2]int{{0, 0}, {0, 0}}},
	}
	for _, tt := range tests {
		for i, w := range tt.want {
			lo, hi := chunkBounds(tt.total, tt.n, i)
			if lo != w[0] || hi != w[1] {
				t.Errorf("chunkBounds(%d,%d,%d) = [%d,%d), want [%d,%d)",
					tt.total, tt.n, i, lo, hi, w[0], w[1])
			}
		}
	}
}

// Property: chunks tile the range exactly, for any total and n.
func TestQuickChunkBoundsTile(t *testing.T) {
	f := func(total uint16, n uint8) bool {
		nn := int(n%16) + 1
		tot := int(total % 4096)
		prev := 0
		for i := 0; i < nn; i++ {
			lo, hi := chunkBounds(tot, nn, i)
			if lo != prev || hi < lo {
				return false
			}
			prev = hi
		}
		return prev == tot
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRingAllReduceSum(t *testing.T) {
	for _, size := range []int{1, 2, 3, 4, 5, 8} {
		for _, elems := range []int{1, 2, 7, 64, 1000} {
			runRanks(t, size, 1, func(c *mpi.Comm) error {
				data := make([]float32, elems)
				for i := range data {
					data[i] = float32(c.Rank()*elems + i)
				}
				if err := RingAllReduceCodec(c, 0, data, tensor.OpSum, compress.FP32{}); err != nil {
					return err
				}
				for i := range data {
					// sum over ranks r of (r*elems + i)
					want := float32(elems*size*(size-1)/2 + i*size)
					if math.Abs(float64(data[i]-want)) > 1e-3 {
						t.Errorf("size=%d elems=%d rank=%d: data[%d] = %v, want %v",
							size, elems, c.Rank(), i, data[i], want)
						return nil
					}
				}
				return nil
			})
		}
	}
}

func TestRingAllReduceMinMax(t *testing.T) {
	runRanks(t, 4, 1, func(c *mpi.Comm) error {
		data := []float32{float32(c.Rank()), float32(-c.Rank()), 5}
		if err := RingAllReduceCodec(c, 0, data, tensor.OpMin, compress.FP32{}); err != nil {
			return err
		}
		if data[0] != 0 || data[1] != -3 || data[2] != 5 {
			t.Errorf("min result = %v", data)
		}
		return nil
	})
	runRanks(t, 4, 1, func(c *mpi.Comm) error {
		data := []float32{float32(c.Rank()), float32(-c.Rank())}
		if err := RingAllReduceCodec(c, 0, data, tensor.OpMax, compress.FP32{}); err != nil {
			return err
		}
		if data[0] != 3 || data[1] != 0 {
			t.Errorf("max result = %v", data)
		}
		return nil
	})
}

func TestRingAllReduceShorterThanRanks(t *testing.T) {
	// Fewer elements than ranks: some chunks are empty.
	runRanks(t, 8, 1, func(c *mpi.Comm) error {
		data := []float32{1, 2, 3}
		if err := RingAllReduceCodec(c, 0, data, tensor.OpSum, compress.FP32{}); err != nil {
			return err
		}
		if data[0] != 8 || data[1] != 16 || data[2] != 24 {
			t.Errorf("rank %d: result = %v", c.Rank(), data)
		}
		return nil
	})
}

func TestRingAllReduceEmptyAndSingle(t *testing.T) {
	runRanks(t, 4, 1, func(c *mpi.Comm) error {
		return RingAllReduceCodec(c, 0, nil, tensor.OpSum, compress.FP32{})
	})
	runRanks(t, 1, 1, func(c *mpi.Comm) error {
		data := []float32{7}
		if err := RingAllReduceCodec(c, 0, data, tensor.OpSum, compress.FP32{}); err != nil {
			return err
		}
		if data[0] != 7 {
			t.Errorf("single-rank all-reduce changed data: %v", data)
		}
		return nil
	})
}

func TestBroadcast(t *testing.T) {
	for _, size := range []int{1, 2, 3, 4, 7, 8} {
		for root := 0; root < size; root++ {
			runRanks(t, size, 1, func(c *mpi.Comm) error {
				data := make([]float32, 5)
				if c.Rank() == root {
					for i := range data {
						data[i] = float32(100*root + i)
					}
				}
				if err := BroadcastCodec(c, 0, root, data, compress.FP32{}); err != nil {
					return err
				}
				for i := range data {
					want := float32(100*root + i)
					if data[i] != want {
						t.Errorf("size=%d root=%d rank=%d: data[%d] = %v, want %v",
							size, root, c.Rank(), i, data[i], want)
						return nil
					}
				}
				return nil
			})
		}
	}
}

func TestAndAllReduceBits(t *testing.T) {
	for _, size := range []int{1, 2, 3, 4, 8} {
		runRanks(t, size, 1, func(c *mpi.Comm) error {
			// Bit g is set on rank r iff g%size != r. Therefore bit g
			// survives the AND iff no rank cleared it — i.e. never, except
			// bits >= size*width... Actually bit g is cleared by exactly
			// rank g%size, so no bit survives except when size==1.
			bits := []uint64{^uint64(0), ^uint64(0)}
			for g := 0; g < 128; g++ {
				if g%size == c.Rank() && size > 1 {
					bits[g/64] &^= 1 << (g % 64)
				}
			}
			if err := AndAllReduceBits(c, 0, bits); err != nil {
				return err
			}
			for g := 0; g < 128; g++ {
				got := bits[g/64]&(1<<(g%64)) != 0
				want := size == 1
				if got != want {
					t.Errorf("size=%d rank=%d: bit %d = %v, want %v", size, c.Rank(), g, got, want)
					return nil
				}
			}
			return nil
		})
	}
}

func TestAndAllReduceBitsAgreement(t *testing.T) {
	// All ranks set a common subset plus a private bit; only the common
	// subset must survive, and all ranks must agree.
	const size = 5
	runRanks(t, size, 1, func(c *mpi.Comm) error {
		bits := []uint64{0}
		bits[0] |= 0b1010 // common
		bits[0] |= 1 << (10 + c.Rank())
		if err := AndAllReduceBits(c, 0, bits); err != nil {
			return err
		}
		if bits[0] != 0b1010 {
			t.Errorf("rank %d: bits = %b, want 1010", c.Rank(), bits[0])
		}
		return nil
	})
}

func TestHierarchicalAllReduce(t *testing.T) {
	for _, tc := range []struct{ size, perNode int }{
		{size: 8, perNode: 4},
		{size: 8, perNode: 2},
		{size: 6, perNode: 3},
		{size: 6, perNode: 1}, // every rank its own node: flat ring
		{size: 4, perNode: 4}, // single node
		{size: 1, perNode: 8},
	} {
		runRanks(t, tc.size, 1, func(c *mpi.Comm) error {
			data := make([]float32, 33)
			for i := range data {
				data[i] = float32(c.Rank() + i)
			}
			if err := HierarchicalAllReduceCodec(c, 0, tc.perNode, data, tensor.OpSum, compress.FP32{}); err != nil {
				return err
			}
			for i := range data {
				want := float32(tc.size*(tc.size-1)/2 + i*tc.size)
				if math.Abs(float64(data[i]-want)) > 1e-3 {
					t.Errorf("size=%d perNode=%d rank=%d: data[%d] = %v, want %v",
						tc.size, tc.perNode, c.Rank(), i, data[i], want)
					return nil
				}
			}
			return nil
		})
	}
}

func TestHierarchicalAllReduceBadPerNode(t *testing.T) {
	runRanks(t, 2, 1, func(c *mpi.Comm) error {
		err := HierarchicalAllReduceCodec(c, 0, 0, []float32{1}, tensor.OpSum, compress.FP32{})
		if err == nil {
			t.Error("gpusPerNode=0 must be rejected")
		}
		return nil
	})
	// Ragged nodes (size not divisible by gpusPerNode) are rejected with a
	// descriptive ErrBadGroup rather than silently producing a lopsided
	// schedule.
	runRanks(t, 6, 1, func(c *mpi.Comm) error {
		err := HierarchicalAllReduceCodec(c, 0, 4, []float32{1}, tensor.OpSum, compress.FP32{})
		if !errors.Is(err, mpi.ErrBadGroup) {
			t.Errorf("size 6 perNode 4: err = %v, want ErrBadGroup", err)
		}
		if err != nil && !strings.Contains(err.Error(), "not divisible") {
			t.Errorf("error %q should explain the divisibility requirement", err)
		}
		return nil
	})
}

// TestHierarchicalMatchesReference checks the two-level schedule is
// bit-identical to the serial three-phase reference for data whose sums are
// exactly representable (small integers): both orders of fp32 summation are
// then exact, so any mismatch is a scheduling bug, not rounding.
func TestHierarchicalMatchesReference(t *testing.T) {
	const size, perNode, n = 8, 4, 5000
	type result struct {
		twoLevel, ref []float32
	}
	results := make([]result, size)
	runRanks(t, size, 1, func(c *mpi.Comm) error {
		mk := func() []float32 {
			data := make([]float32, n)
			for i := range data {
				data[i] = float32((c.Rank()+i)%17 - 8)
			}
			return data
		}
		a, b := mk(), mk()
		if err := HierarchicalAllReduceCodec(c, 0, perNode, a, tensor.OpSum, compress.FP32{}); err != nil {
			return err
		}
		if err := hierarchicalReference(c, 0, perNode, b, tensor.OpSum, compress.FP32{}); err != nil {
			return err
		}
		results[c.Rank()] = result{twoLevel: a, ref: b}
		return nil
	})
	for r, res := range results {
		for i := range res.twoLevel {
			if res.twoLevel[i] != res.ref[i] {
				t.Fatalf("rank %d elem %d: two-level %v != reference %v", r, i, res.twoLevel[i], res.ref[i])
			}
		}
	}
}

// Concurrent all-reduce operations on distinct streams must not interfere —
// the property the multi-stream engine depends on.
func TestConcurrentStreamsAllReduce(t *testing.T) {
	const size, streams = 4, 6
	runRanks(t, size, streams, func(c *mpi.Comm) error {
		var wg sync.WaitGroup
		errs := make([]error, streams)
		for s := 0; s < streams; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				data := make([]float32, 100+s)
				for i := range data {
					data[i] = float32(c.Rank() * (s + 1))
				}
				if err := RingAllReduceCodec(c, s, data, tensor.OpSum, compress.FP32{}); err != nil {
					errs[s] = err
					return
				}
				want := float32(size * (size - 1) / 2 * (s + 1))
				for i := range data {
					if data[i] != want {
						t.Errorf("stream %d rank %d: data[%d] = %v, want %v", s, c.Rank(), i, data[i], want)
						return
					}
				}
			}(s)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	})
}

// The collectives must work identically over real TCP.
func TestRingAllReduceOverTCP(t *testing.T) {
	const size = 3
	net, err := transport.NewTCP(size, 2)
	if err != nil {
		t.Fatalf("NewTCP: %v", err)
	}
	defer func() { _ = net.Close() }()
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		ep, err := net.Endpoint(r)
		if err != nil {
			t.Fatalf("Endpoint: %v", err)
		}
		wg.Add(1)
		go func(ep transport.Endpoint) {
			defer wg.Done()
			c := mpi.NewWorld(ep)
			data := make([]float32, 257)
			for i := range data {
				data[i] = float32(c.Rank())
			}
			if err := RingAllReduceCodec(c, 1, data, tensor.OpSum, compress.FP32{}); err != nil {
				t.Errorf("rank %d: %v", c.Rank(), err)
				return
			}
			for i := range data {
				if data[i] != 3 { // 0+1+2
					t.Errorf("rank %d: data[%d] = %v, want 3", c.Rank(), i, data[i])
					return
				}
			}
		}(ep)
	}
	wg.Wait()
}

// Property: the pipelined segmented ring is bit-exact against the serial
// reference protocol for the lossless fp32 codec — every world size, payload
// shape and segment size, including empty chunks (n > len(data)), segments
// larger than a chunk, and single-segment chunks. The reference decodes into
// scratch and reduces with Apply; the pipelined OpSum hop is the
// fused Codec.DecodeAdd, so this grid is also what holds the fused kernels
// to the two-step form inside a real ring: inputs carry NaNs with payloads,
// opposite infinities and -0 on some ranks, chunks longer than one assembly
// block, and results are compared as bit patterns. OpMax rides along for the
// unfused branch and its lazily taken scratch.
func TestPipelinedMatchesReferenceBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sizes := []int{2, 3, 4, 5, 8}
	elemGrid := []int{1, 2, 3, 7, 64, 1000, 4099, 20011}
	segGrid := []int64{1 << 30, 64, 256, 4 << 10} // 1 segment .. many tiny segments
	specials := []uint32{0x7fc00001, 0xffc12345, 0x7f800000, 0xff800000, 0x80000000, 0x7f800055}
	for _, size := range sizes {
		for _, elems := range elemGrid {
			inputs := make([][]float32, size)
			for r := range inputs {
				inputs[r] = make([]float32, elems)
				for i := range inputs[r] {
					inputs[r][i] = rng.Float32()*2 - 1
					if rng.Intn(50) == 0 {
						inputs[r][i] = math.Float32frombits(specials[rng.Intn(len(specials))])
					}
				}
			}
			for _, op := range []tensor.ReduceOp{tensor.OpSum, tensor.OpMax} {
				// Serial reference on one mesh...
				want := make([][]float32, size)
				runRanks(t, size, 1, func(c *mpi.Comm) error {
					data := append([]float32(nil), inputs[c.Rank()]...)
					if err := ringAllReduceReference(c, 0, data, op, compress.FP32{}); err != nil {
						return err
					}
					want[c.Rank()] = data
					return nil
				})
				// ...must match the pipelined ring bit for bit at every
				// segment size.
				for _, seg := range segGrid {
					if elems > 4099 && seg < 4<<10 {
						continue // thousands of 16-element frames add time, not coverage
					}
					runRanks(t, size, 1, func(c *mpi.Comm) error {
						data := append([]float32(nil), inputs[c.Rank()]...)
						if err := RingAllReduceCodec(c, 0, data, op, compress.FP32{},
							WithSegmentBytes(seg)); err != nil {
							return err
						}
						for i := range data {
							if g, w := math.Float32bits(data[i]), math.Float32bits(want[c.Rank()][i]); g != w {
								t.Errorf("size=%d elems=%d seg=%d op=%v rank=%d: data[%d] = %#08x, want %#08x (bit-exact)",
									size, elems, seg, op, c.Rank(), i, g, w)
								return nil
							}
						}
						return nil
					})
				}
			}
		}
	}
}

// With a lossy codec every rank must still end bit-identical: the all-gather
// forwards received wire payloads verbatim, and the owner re-quantizes its own
// chunk through the codec, so no rank sees a value another rank doesn't.
func TestFP16AllGatherBitIdenticalAcrossRanks(t *testing.T) {
	for _, size := range []int{2, 3, 4, 5} {
		for _, elems := range []int{1, 5, 300, 1000} {
			for _, seg := range []int64{1 << 30, 128, 1 << 10} {
				results := make([][]float32, size)
				runRanks(t, size, 1, func(c *mpi.Comm) error {
					data := make([]float32, elems)
					for i := range data {
						// Values whose sum is not fp16-representable exactly,
						// so re-quantization actually matters.
						data[i] = 0.001*float32(i%97) + 0.0001*float32(c.Rank())
					}
					if err := RingAllReduceCodec(c, 0, data, tensor.OpSum, compress.FP16{},
						WithSegmentBytes(seg)); err != nil {
						return err
					}
					results[c.Rank()] = data
					return nil
				})
				for r := 1; r < size; r++ {
					for i := range results[r] {
						if results[r][i] != results[0][i] {
							t.Fatalf("size=%d elems=%d seg=%d: rank %d data[%d] = %v, rank 0 has %v",
								size, elems, seg, r, i, results[r][i], results[0][i])
						}
					}
				}
			}
		}
	}
}

// The pipelined ring must survive the race detector over real TCP sockets
// with several concurrent streams per rank.
func TestPipelinedRingOverTCPConcurrentStreams(t *testing.T) {
	const size, streams = 3, 3
	net, err := transport.NewTCP(size, streams)
	if err != nil {
		t.Fatalf("NewTCP: %v", err)
	}
	defer func() { _ = net.Close() }()
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		ep, err := net.Endpoint(r)
		if err != nil {
			t.Fatalf("Endpoint: %v", err)
		}
		wg.Add(1)
		go func(ep transport.Endpoint) {
			defer wg.Done()
			c := mpi.NewWorld(ep)
			var sg sync.WaitGroup
			for s := 0; s < streams; s++ {
				sg.Add(1)
				go func(s int) {
					defer sg.Done()
					elems := 3000 + 17*s // several segments per chunk
					data := make([]float32, elems)
					for i := range data {
						data[i] = float32(c.Rank() + s)
					}
					if err := RingAllReduceCodec(c, s, data, tensor.OpSum, compress.FP32{},
						WithSegmentBytes(1<<10)); err != nil {
						t.Errorf("rank %d stream %d: %v", c.Rank(), s, err)
						return
					}
					want := float32(size*(size-1)/2 + size*s)
					for i := range data {
						if data[i] != want {
							t.Errorf("rank %d stream %d: data[%d] = %v, want %v",
								c.Rank(), s, i, data[i], want)
							return
						}
					}
				}(s)
			}
			sg.Wait()
		}(ep)
	}
	wg.Wait()
}

// Hierarchical all-reduce accepts segment options and stays correct.
func TestHierarchicalAllReduceSegmented(t *testing.T) {
	const size, perNode = 4, 2
	runRanks(t, size, 1, func(c *mpi.Comm) error {
		data := make([]float32, 700)
		for i := range data {
			data[i] = float32(c.Rank() + 1)
		}
		if err := HierarchicalAllReduceCodec(c, 0, perNode, data, tensor.OpSum, compress.FP32{},
			WithSegmentBytes(512)); err != nil {
			return err
		}
		want := float32(size * (size + 1) / 2)
		for i := range data {
			if data[i] != want {
				t.Errorf("rank %d: data[%d] = %v, want %v", c.Rank(), i, data[i], want)
				return nil
			}
		}
		return nil
	})
}

// numSegments invariants: every chunk is at least one segment; segments never
// exceed the configured byte size in elements.
func TestNumSegments(t *testing.T) {
	cases := []struct {
		elems int
		seg   int64
		want  int
	}{
		{0, 1 << 20, 1},
		{1, 1 << 20, 1},
		{100, 400, 1}, // exactly one segment
		{101, 400, 2}, // one element over
		{1000, 400, 10},
		{1000, 3, 0}, // <4 bytes: degenerate, fall back to one segment
		{1000, 0, 0}, // answered by buildOptions before numSegments; 0 treated as 1
	}
	for _, c := range cases {
		got := numSegments(c.elems, c.seg)
		want := c.want
		if want == 0 {
			want = 1
		}
		if got != want {
			t.Errorf("numSegments(%d, %d) = %d, want %d", c.elems, c.seg, got, want)
		}
	}
}

// Property: ring all-reduce sum equals the serial sum for random inputs.
func TestQuickRingAllReduceMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		size := 2 + rng.Intn(5)
		elems := 1 + rng.Intn(200)
		inputs := make([][]float32, size)
		want := make([]float64, elems)
		for r := range inputs {
			inputs[r] = make([]float32, elems)
			for i := range inputs[r] {
				inputs[r][i] = rng.Float32()*2 - 1
				want[i] += float64(inputs[r][i])
			}
		}
		runRanks(t, size, 1, func(c *mpi.Comm) error {
			data := append([]float32(nil), inputs[c.Rank()]...)
			if err := RingAllReduceCodec(c, 0, data, tensor.OpSum, compress.FP32{}); err != nil {
				return err
			}
			for i := range data {
				if math.Abs(float64(data[i])-want[i]) > 1e-4*float64(size) {
					t.Errorf("trial %d rank %d elem %d: got %v, want %v",
						trial, c.Rank(), i, data[i], want[i])
					return nil
				}
			}
			return nil
		})
	}
}
