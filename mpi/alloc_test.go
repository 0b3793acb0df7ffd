//go:build !race

// The race detector makes sync.Pool drop a share of its Puts, so allocation
// counts mean nothing under -race and this file builds without it.

package mpi

import "testing"

// TestBarrierZeroAllocSteadyState runs a 4-rank barrier in lockstep on
// long-lived rank goroutines: once the sender free list is warm, a barrier
// allocates nothing.
func TestBarrierZeroAllocSteadyState(t *testing.T) {
	comms := worldComms(t, 4, 1)
	start := make([]chan struct{}, len(comms))
	done := make(chan error, len(comms))
	for r, c := range comms {
		start[r] = make(chan struct{})
		go func(s chan struct{}, c *Comm) {
			for range s {
				done <- c.Barrier(0)
			}
		}(start[r], c)
	}
	defer func() {
		for _, s := range start {
			close(s)
		}
	}()
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
	for i := 0; i < 50; i++ {
		round()
	}
	if avg := testing.AllocsPerRun(200, round); avg > 0.1 {
		t.Fatalf("steady-state barrier allocates %.2f times, want 0", avg)
	}
}
