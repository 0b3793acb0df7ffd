//go:build !race

// The race detector makes sync.Pool drop a share of its Puts, so allocation
// counts mean nothing under -race and this file builds without it.

package collective

import (
	"testing"

	"aiacc/compress"
	"aiacc/mpi"
	"aiacc/tensor"
	"aiacc/transport"
)

// lockstep starts one long-lived goroutine per rank of a mem network (no op
// timeout) and returns a round function that runs op once on every rank and
// waits for all of them. No goroutine starts per round, so
// testing.AllocsPerRun over round counts only what op allocates.
func lockstep(t *testing.T, size int, op func(c *mpi.Comm, rank int) error) func() {
	t.Helper()
	net, err := transport.NewMem(size, 1)
	if err != nil {
		t.Fatal(err)
	}
	start := make([]chan struct{}, size)
	done := make(chan error, size)
	for r := range start {
		ep, err := net.Endpoint(r)
		if err != nil {
			t.Fatal(err)
		}
		start[r] = make(chan struct{})
		c := mpi.NewWorld(ep)
		go func(r int) {
			for range start[r] {
				done <- op(c, r)
			}
		}(r)
	}
	t.Cleanup(func() {
		for _, s := range start {
			close(s)
		}
		_ = net.Close()
	})
	return func() {
		for _, s := range start {
			s <- struct{}{}
		}
		for range start {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestCollectivesZeroAllocSteadyState pins DESIGN.md's "0 allocs/op": once
// the wire pool, the scratch pools and the sender free list are warm, a ring
// all-reduce (several segments per chunk, scaled on the owner) and the
// readiness AND ring allocate nothing. HierarchicalAllReduceCodec is left
// out: it splits its node and cross-node sub-communicators and starts a
// worker goroutine on every call, so it allocates by design.
func TestCollectivesZeroAllocSteadyState(t *testing.T) {
	const size, elems = 4, 10000
	cases := []struct {
		name string
		op   func(c *mpi.Comm, data []float32, bits []uint64) error
	}{
		{"ring fp32 scaled", func(c *mpi.Comm, data []float32, _ []uint64) error {
			return RingAllReduceCodec(c, 0, data, tensor.OpSum, compress.FP32{},
				WithScale(0.25), WithSegmentBytes(4<<10))
		}},
		{"ring fp16 scaled", func(c *mpi.Comm, data []float32, _ []uint64) error {
			return RingAllReduceCodec(c, 0, data, tensor.OpSum, compress.FP16{},
				WithScale(0.25), WithSegmentBytes(4<<10))
		}},
		{"and bits", func(c *mpi.Comm, _ []float32, bits []uint64) error {
			return AndAllReduceBits(c, 0, bits)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := make([][]float32, size)
			bits := make([][]uint64, size)
			for r := range data {
				data[r] = make([]float32, elems)
				for i := range data[r] {
					data[r][i] = float32(i%97) / 8
				}
				bits[r] = make([]uint64, 3)
			}
			round := lockstep(t, size, func(c *mpi.Comm, r int) error {
				for i := range bits[r] {
					bits[r][i] = ^uint64(0) >> r
				}
				return tc.op(c, data[r], bits[r])
			})
			for i := 0; i < 50; i++ {
				round()
			}
			if avg := testing.AllocsPerRun(100, round); avg > 0.1 {
				t.Fatalf("steady-state round allocates %.2f times, want 0", avg)
			}
		})
	}
}
