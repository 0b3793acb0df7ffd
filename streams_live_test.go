package aiacc_test

import (
	"slices"
	"sync"
	"testing"
	"time"

	"aiacc/engine"
	"aiacc/mpi"
	"aiacc/netmodel"
	"aiacc/tensor"
	"aiacc/transport"
)

// TestMultiStreamSpeedupOnModeledLink is the live gate for the tuner's first
// dimension and the paper's §III premise: over a link where one stream
// drives only 30 % of the line rate, iteration time falls as the engine
// spreads units over more concurrent streams. The modelled link's senders
// sleep instead of burning CPU, so the result does not depend on the host's
// core count.
func TestMultiStreamSpeedupOnModeledLink(t *testing.T) {
	link := netmodel.Link{
		Kind:            netmodel.TCP,
		CapacityGbps:    0.8,
		SingleStreamEff: 0.30,
		MaxUtilization:  0.96,
		BaseLatency:     200 * time.Microsecond,
	}
	iter := map[int]time.Duration{}
	for _, streams := range []int{1, 2, 4} {
		iter[streams] = modeledLinkIterTime(t, link, streams)
	}
	for _, n := range []int{1, 2, 4} {
		t.Logf("streams %d: %v/iter, speed-up %.2fx (netmodel utilization ratio %.2fx)",
			n, iter[n].Round(time.Millisecond), iter[1].Seconds()/iter[n].Seconds(),
			link.Utilization(n)/link.Utilization(1))
	}
	if !(iter[1] > iter[2] && iter[2] > iter[4]) {
		t.Errorf("iteration time must fall over streams 1 -> 2 -> 4: %v %v %v", iter[1], iter[2], iter[4])
	}
	if s := iter[1].Seconds() / iter[4].Seconds(); s < 2 {
		t.Errorf("4-stream speed-up = %.2fx, want >= 2x", s)
	}
}

// modeledLinkIterTime runs 4 workers all-reducing 4 MiB of fp32 gradients in
// 1 MiB units over the modelled link and returns rank 0's median iteration
// time after one warm-up iteration.
func modeledLinkIterTime(t *testing.T, link netmodel.Link, streams int) time.Duration {
	t.Helper()
	const workers, iters, elems = 4, 4, 1 << 20
	cfg := engine.DefaultConfig()
	cfg.Streams = streams
	cfg.GranularityBytes = 1 << 20
	net, err := transport.NewMem(workers, cfg.RequiredStreams(), transport.WithModeledLink(link),
		transport.WithMemOpTimeout(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	times := make([]time.Duration, 0, iters)
	var wg sync.WaitGroup
	for r := range workers {
		ep, err := net.Endpoint(r)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			comm := mpi.NewWorld(ep)
			defer comm.Close()
			eng, err := engine.NewEngine(comm, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			defer func() { _ = eng.Close() }()
			if err := eng.Register("w", elems); err != nil {
				t.Error(err)
				return
			}
			if err := eng.Start(); err != nil {
				t.Error(err)
				return
			}
			g := tensor.Filled(float32(r), elems)
			for range iters {
				start := time.Now()
				if err := eng.PushGradient("w", g); err != nil {
					t.Error(err)
					return
				}
				if err := eng.WaitIteration(); err != nil {
					t.Error(err)
					return
				}
				if r == 0 {
					times = append(times, time.Since(start))
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	times = times[1:]
	slices.Sort(times)
	return times[len(times)/2]
}
