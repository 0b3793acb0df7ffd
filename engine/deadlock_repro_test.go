package engine

import (
	"time"

	"testing"

	"aiacc/netmodel"
	"aiacc/transport"
)

// Repro: three large units of strictly increasing urgency dispatched
// backward (c2, c1, c0) on one stream. c2 runs, c1 preempts (both slots
// busy), c0 arrives with no free runner — both active units park at their
// yield gates waiting for c0, which can never start.
func TestReproYieldGateDeadlock(t *testing.T) {
	params := []priorityParam{
		{"l2.weight", 256 << 10, 2},
		{"l1.weight", 256 << 10, 1},
		{"l0.weight", 256 << 10, 0},
	}
	cfg := DefaultConfig()
	cfg.Streams = 1
	cfg.PriorityDepth = 2          // three priorities: one class each
	cfg.GranularityBytes = 4 << 20 // one unit per gradient
	cfg.SegmentBytes = 4 << 10
	cfg.MinSyncBytes = 1
	slow := []transport.MemOption{transport.WithModeledLink(netmodel.Link{
		Kind:            netmodel.TCP,
		CapacityGbps:    0.5,
		SingleStreamEff: 0.5,
		MaxUtilization:  0.96,
		BaseLatency:     50 * time.Microsecond,
	})}

	done := make(chan struct{})
	go func() {
		defer close(done)
		runPriorityEngines(t, 2, cfg, params, slow, func(e *Engine) error {
			grads := priorityGrads(e.Rank(), 0, params)
			for i := 0; i < len(params); i++ { // backward order: layer 2 first
				if err := e.PushGradient(params[i].name, grads[params[i].name]); err != nil {
					return err
				}
				time.Sleep(2 * time.Millisecond) // let the previous unit start transferring
			}
			return e.WaitIteration()
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("deadlock: WaitIteration never returned")
	}
}
