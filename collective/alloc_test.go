//go:build !race

// The race detector makes sync.Pool drop a share of its Puts, so allocation
// counts mean nothing under -race and this file builds without it.

package collective

import (
	"strings"
	"testing"

	"aiacc/compress"
	"aiacc/metrics"
	"aiacc/mpi"
	"aiacc/tensor"
	"aiacc/transport"
	"aiacc/transport/shmnet"
)

// lockstep starts one long-lived goroutine per rank of net (no op timeout)
// and returns a round function that runs op once on every rank and waits
// for all of them. No goroutine starts per round, so testing.AllocsPerRun
// over round counts only what op allocates.
func lockstep(t *testing.T, net transport.Network, op func(c *mpi.Comm, rank int) error) func() {
	t.Helper()
	size := net.Size()
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
// readiness AND ring allocate nothing. The shm cases run the ring over the
// shared-memory transport, whose frames here are all lent and encoded in
// place (transport.Lender). The pieces cases run RingAllReducePieces over a
// unit of four pieces cut inside ring chunks and segments, a one-element
// piece among them: the windows over the pieces live on the stack.
// HierarchicalAllReduceCodec is left out: it
// splits its node and cross-node sub-communicators and starts a worker
// goroutine on every call, so it allocates by design.
func TestCollectivesZeroAllocSteadyState(t *testing.T) {
	const size, elems = 4, 10000
	mem := func() (transport.Network, error) { return transport.NewMem(size, 1) }
	shm := func() (transport.Network, error) { return shmnet.New(size, 1) }
	ringOp := func(codec compress.Codec) func(c *mpi.Comm, data []float32, _ []uint64) error {
		return func(c *mpi.Comm, data []float32, _ []uint64) error {
			return RingAllReduceCodec(c, 0, data, tensor.OpSum, codec,
				WithScale(0.25), WithSegmentBytes(4<<10))
		}
	}
	piecesOp := func(codec compress.Codec) func(c *mpi.Comm, data []float32, _ []uint64) error {
		return func(c *mpi.Comm, data []float32, _ []uint64) error {
			pieces := [4][]float32{data[:1], data[1:2], data[2:3333], data[3333:]}
			return RingAllReducePieces(c, 0, pieces[:], tensor.OpSum, codec,
				WithScale(0.25), WithSegmentBytes(4<<10))
		}
	}
	cases := []struct {
		name string
		net  func() (transport.Network, error)
		op   func(c *mpi.Comm, data []float32, bits []uint64) error
	}{
		{"ring fp32 scaled", mem, ringOp(compress.FP32{})},
		{"ring fp16 scaled", mem, ringOp(compress.FP16{})},
		{"shm ring fp32 scaled", shm, ringOp(compress.FP32{})},
		{"shm ring fp16 scaled", shm, ringOp(compress.FP16{})},
		{"pieces fp32 scaled", mem, piecesOp(compress.FP32{})},
		{"pieces fp16 scaled", mem, piecesOp(compress.FP16{})},
		{"shm pieces fp32 scaled", shm, piecesOp(compress.FP32{})},
		{"shm pieces fp16 scaled", shm, piecesOp(compress.FP16{})},
		{"and bits", mem, func(c *mpi.Comm, _ []float32, bits []uint64) error {
			return AndAllReduceBits(c, 0, bits)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net, err := tc.net()
			if err != nil {
				t.Fatal(err)
			}
			data := make([][]float32, size)
			bits := make([][]uint64, size)
			for r := range data {
				data[r] = make([]float32, elems)
				for i := range data[r] {
					data[r][i] = float32(i%97) / 8
				}
				bits[r] = make([]uint64, 3)
			}
			round := lockstep(t, net, func(c *mpi.Comm, r int) error {
				for i := range bits[r] {
					bits[r][i] = ^uint64(0) >> r
				}
				return tc.op(c, data[r], bits[r])
			})
			for i := 0; i < 50; i++ {
				round()
			}
			lent, reserved := shmLendCounts()
			if avg := testing.AllocsPerRun(100, round); avg > 0.1 {
				t.Fatalf("steady-state round allocates %.2f times, want 0", avg)
			}
			if l, r := shmLendCounts(); strings.HasPrefix(tc.name, "shm") && (l == lent || r == reserved) {
				t.Fatalf("shm frames not lent and reserved in place: %.0f lent, %.0f reserved", l-lent, r-reserved)
			}
		})
	}
}

// shmLendCounts sums the shared-memory transport's lent and reserved frame
// counters over every rank.
func shmLendCounts() (lent, reserved float64) {
	snap := metrics.SnapshotDefault()
	sum := func(name string) (v float64) {
		if f := snap.Family(name); f != nil {
			for _, s := range f.Series {
				v += s.Value
			}
		}
		return v
	}
	return sum("aiacc_shm_lent_frames_total"), sum("aiacc_shm_reserved_frames_total")
}
