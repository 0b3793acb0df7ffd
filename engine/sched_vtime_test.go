//go:build goexperiment.synctest

package engine

import (
	"strconv"
	"sync"
	"testing"
	"time"

	"aiacc/internal/vtime"
	"aiacc/metrics"
	"aiacc/mpi"
	"aiacc/netmodel"
	"aiacc/tensor"
	"aiacc/transport"
)

// TestVTimeQueueGaugesPerStream reads each stream's queue gauges while its
// units are in flight. Two ranks push five one-unit gradients at once over a
// slow modelled link, so 5 ms later, in virtual time, every unit has been
// dispatched and none has finished its first ring step: stream 0 runs unit 0
// and queues units 2 and 4, stream 1 runs unit 1 and queues unit 3. Each
// stream's gauges must show its own queue, and both must read empty once the
// iteration ends.
func TestVTimeQueueGaugesPerStream(t *testing.T) {
	const (
		size      = 2
		unitElems = 256 << 10
		unitBytes = unitElems * 4
	)
	cfg := DefaultConfig()
	cfg.Streams = 2
	cfg.GranularityBytes = unitBytes
	gauges := func(stream int) (depth, bytes int64) {
		labels := []metrics.Label{metrics.L("rank", "0"), metrics.L("stream", strconv.Itoa(stream))}
		return metrics.Default.Gauge("aiacc_engine_sched_queue_depth", "", labels...).Value(),
			metrics.Default.Gauge("aiacc_engine_sched_queue_bytes", "", labels...).Value()
	}
	check := func(when string, want [2]int64) {
		t.Helper()
		for s, units := range want {
			if depth, bytes := gauges(s); depth != units || bytes != units*unitBytes {
				t.Errorf("%s: stream %d queue gauges read %d units, %d bytes; want %d, %d",
					when, s, depth, bytes, units, units*unitBytes)
			}
		}
	}
	vtime.Test(t, func(t *testing.T) {
		net, err := transport.NewMem(size, cfg.RequiredStreams(), transport.WithModeledLink(netmodel.Link{
			Kind:            netmodel.TCP,
			CapacityGbps:    0.8,
			SingleStreamEff: 0.5,
			MaxUtilization:  0.96,
			BaseLatency:     50 * time.Microsecond,
		}))
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = net.Close() }()
		engines := make([]*Engine, size)
		for r := range engines {
			ep, err := net.Endpoint(r)
			if err != nil {
				t.Fatal(err)
			}
			comm := mpi.NewWorld(ep)
			defer comm.Close()
			e, err := NewEngine(comm, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = e.Close() }()
			for g := range 5 {
				if err := e.Register("g"+strconv.Itoa(g), unitElems); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.Start(); err != nil {
				t.Fatal(err)
			}
			engines[r] = e
		}
		var wg sync.WaitGroup
		for _, e := range engines {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for g := range 5 {
					if err := e.PushGradient("g"+strconv.Itoa(g), tensor.Filled(1, unitElems)); err != nil {
						t.Error(err)
						return
					}
				}
				if err := e.WaitIteration(); err != nil {
					t.Error(err)
				}
			}()
		}
		time.Sleep(5 * time.Millisecond)
		check("in flight", [2]int64{2, 1})
		wg.Wait()
	})
	check("after the iteration", [2]int64{0, 0})
}
