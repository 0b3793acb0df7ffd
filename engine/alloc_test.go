//go:build !race

// The race detector makes sync.Pool drop a share of its Puts, so allocation
// measurements mean little under -race and this file builds without it.

package engine

import (
	"fmt"
	"runtime"
	"testing"

	"aiacc/mpi"
	"aiacc/tensor"
	"aiacc/transport"
)

// A steady-state iteration of multi-fragment units allocates no unit
// buffer at any dispatcher depth: the units are reduced in the pushed
// tensors. Two collections before every measured iteration empty the
// sync.Pools, so a pooled per-unit buffer would be allocated afresh each
// time and show as at least one unit's bytes; what is left (wire buffers of
// one segment, the packer's unit list, the piece lists) is far below that.
func TestMultiFragmentIterationAllocatesNoUnitBuffer(t *testing.T) {
	for _, depth := range []int{0, 1, 2} {
		t.Run(fmt.Sprintf("depth=%d", depth), func(t *testing.T) {
			testIterationAllocatesNoUnitBuffer(t, depth)
		})
	}
}

func testIterationAllocatesNoUnitBuffer(t *testing.T, depth int) {
	const size, unitElems = 2, 256 << 10
	const unitBytes = 4 * unitElems
	cfg := DefaultConfig()
	cfg.Streams = 1
	cfg.GranularityBytes = unitBytes
	cfg.MinSyncBytes = 2 * unitBytes // one agreement round: two units of two gradients each
	cfg.SegmentBytes = 4 << 10
	cfg.PriorityDepth = depth
	net, err := transport.NewMem(size, cfg.RequiredStreams())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	start := make([]chan struct{}, size)
	done := make(chan error, size)
	for r := range start {
		ep, err := net.Endpoint(r)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(mpi.NewWorld(ep), cfg)
		if err != nil {
			t.Fatal(err)
		}
		grads := make([]*tensor.Tensor, 4)
		for i := range grads {
			// A priority per gradient: at depth 2 each is a class of its own.
			if err := e.RegisterWithPriority(fmt.Sprintf("g%d", i), unitElems/2, i); err != nil {
				t.Fatal(err)
			}
			grads[i] = tensor.Filled(float32(r+i), unitElems/2)
		}
		if err := e.Start(); err != nil {
			t.Fatal(err)
		}
		defer func() { _ = e.Close() }()
		start[r] = make(chan struct{})
		defer close(start[r])
		go func(r int) {
			for range start[r] {
				var err error
				for i := 0; i < len(grads) && err == nil; i++ {
					err = e.PushGradient(fmt.Sprintf("g%d", i), grads[i])
				}
				if err == nil {
					err = e.WaitIteration()
				}
				done <- err
			}
		}(r)
	}
	round := func() {
		for _, s := range start {
			s <- struct{}{}
		}
		for range start {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 5; i++ {
		round()
	}
	const iters = 10
	var bytes uint64
	var ms runtime.MemStats
	for i := 0; i < iters; i++ {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		round()
		runtime.ReadMemStats(&ms)
		bytes += ms.TotalAlloc - before
	}
	if per := bytes / iters; per >= unitBytes {
		t.Fatalf("an iteration of %d ranks allocates %d bytes with the pools empty, at least one %d-byte unit", size, per, unitBytes)
	} else {
		t.Logf("%d bytes per iteration of %d ranks", per, size)
	}
}
