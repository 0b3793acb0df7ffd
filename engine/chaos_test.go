package engine

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"aiacc/internal/leakcheck"
	"aiacc/mpi"
	"aiacc/tensor"
	"aiacc/transport"
	"aiacc/transport/chaos"
)

// TestChaosKillMidIteration kills a single rank while the survivors are
// blocked in gradient agreement. Unlike TestNetworkFailureMidIteration (which
// tears down the whole network), only one endpoint dies here, so the survivors
// must detect the death through the transport's peer-failure fan-out and
// unwind with a *classified* communication failure — the signal the
// checkpoint/restart path (package fault) keys on — and teardown must leak
// neither goroutines nor pooled buffers.
func TestChaosKillMidIteration(t *testing.T) {
	base := leakcheck.Take()
	cfg := DefaultConfig()
	cfg.Streams = 2
	const (
		size   = 3
		victim = 2
	)
	inner, err := transport.NewMem(size, cfg.RequiredStreams(),
		transport.WithMemOpTimeout(2*time.Second), transport.WithBuffer(4))
	if err != nil {
		t.Fatal(err)
	}
	net := chaos.Wrap(inner, chaos.NewPlan(31)) // no planned faults; we kill explicitly
	defer func() { _ = net.Close() }()

	engines := make([]*Engine, size)
	comms := make([]*mpi.Comm, size)
	for r := 0; r < size; r++ {
		ep, err := net.Endpoint(r)
		if err != nil {
			t.Fatal(err)
		}
		comms[r] = mpi.NewWorld(ep)
		eng, err := NewEngine(comms[r], cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Register("w", 1024); err != nil {
			t.Fatal(err)
		}
		if err := eng.Start(); err != nil {
			t.Fatal(err)
		}
		engines[r] = eng
	}

	// The survivors push and wait; the victim never pushes, so the iteration
	// is pinned in agreement when the victim dies.
	var wg sync.WaitGroup
	results := make([]error, size)
	for r := 0; r < size; r++ {
		if r == victim {
			continue
		}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			if err := engines[r].PushGradient("w", tensor.Filled(float32(r+1), 1024)); err != nil {
				results[r] = err
				return
			}
			results[r] = engines[r].WaitIteration()
		}(r)
	}
	time.Sleep(50 * time.Millisecond) // let the survivors block on agreement
	net.Kill(victim)

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("survivors hung after rank %d died\n%s", victim, buf[:n])
	}

	for r, err := range results {
		if r == victim {
			continue
		}
		if err == nil {
			t.Errorf("rank %d: WaitIteration succeeded despite rank %d's death", r, victim)
			continue
		}
		if !transport.IsCommFailure(err) && !errors.Is(err, chaos.ErrKilled) && !errors.Is(err, ErrClosed) {
			t.Errorf("rank %d: unclassified failure: %v", r, err)
		}
	}

	for r, e := range engines {
		_ = e.Close()
		comms[r].Close()
	}
	_ = net.Close()
	if err := base.Goroutines(10 * time.Second); err != nil {
		t.Error(err)
	}
	if err := base.Buffers(10 * time.Second); err != nil {
		t.Error(err)
	}
}
