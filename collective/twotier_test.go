package collective

import (
	"testing"
	"time"

	"aiacc/compress"
	"aiacc/mpi"
	"aiacc/tensor"
	"aiacc/transport"
	"aiacc/transport/shmnet"
)

// runTwoTierRanks executes fn once per rank over a hosts×perHost two-tier
// network: shared-memory rings inside each host, a mem network across hosts —
// the deployment shape the two-level hierarchical schedule is built for.
func runTwoTierRanks(t *testing.T, hosts, perHost, streams int, fn func(c *mpi.Comm) error) {
	t.Helper()
	intra := make([]transport.Network, hosts)
	for h := range intra {
		n, err := shmnet.New(perHost, streams, shmnet.WithOpTimeout(5*time.Second))
		if err != nil {
			t.Fatalf("shmnet.New: %v", err)
		}
		intra[h] = n
	}
	inter, err := transport.NewMem(hosts*perHost, streams, transport.WithMemOpTimeout(5*time.Second))
	if err != nil {
		t.Fatalf("NewMem: %v", err)
	}
	net, err := transport.NewTwoTier(perHost, intra, inter)
	if err != nil {
		t.Fatalf("NewTwoTier: %v", err)
	}
	runNetRanks(t, net, fn)
}

// TestHierarchicalOverTwoTier runs the two-level schedule on its target
// topology — 2 hosts × 4 ranks with shm intra-host lanes — and checks every
// rank converges to the exact sum, across both the pipelined (two-block) and
// small (single-block) regimes, with and without segment pipelining.
func TestHierarchicalOverTwoTier(t *testing.T) {
	const hosts, perHost = 2, 4
	const size = hosts * perHost
	for _, n := range []int{33, 10000} {
		for _, opts := range [][]Option{nil, {WithSegmentBytes(1 << 10)}} {
			runTwoTierRanks(t, hosts, perHost, 1, func(c *mpi.Comm) error {
				data := make([]float32, n)
				for i := range data {
					data[i] = float32(c.Rank() + i%11)
				}
				if err := HierarchicalAllReduceCodec(c, 0, perHost, data, tensor.OpSum, compress.FP32{}, opts...); err != nil {
					return err
				}
				for i := range data {
					want := float32(size*(size-1)/2 + (i%11)*size)
					if data[i] != want {
						t.Errorf("rank %d: data[%d] = %v, want %v", c.Rank(), i, data[i], want)
						return nil
					}
				}
				return nil
			})
		}
	}
}
