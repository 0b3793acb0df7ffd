package transport

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"aiacc/internal/bufpool"
)

// watchdog runs fn and fails the test if it does not return within d — the
// hang-freedom guard every failure-path test runs under.
func watchdog(t *testing.T, d time.Duration, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); fn() }()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatal("operation hung past watchdog")
	}
}

func TestFailureTaxonomy(t *testing.T) {
	pf := &PeerFailedError{Rank: 3, Cause: ErrAborted}
	wrapped := fmt.Errorf("ring step 2: %w", pf)
	if !errors.Is(wrapped, ErrPeerFailed) {
		t.Error("PeerFailedError does not match ErrPeerFailed")
	}
	if !errors.Is(wrapped, ErrAborted) {
		t.Error("cause not reachable through wrapping")
	}
	if r, ok := FailedRank(wrapped); !ok || r != 3 {
		t.Errorf("FailedRank = %d, %v; want 3, true", r, ok)
	}
	if _, ok := FailedRank(ErrClosed); ok {
		t.Error("FailedRank matched a non-peer error")
	}
	for _, err := range []error{ErrTimeout, ErrClosed, wrapped} {
		if !IsCommFailure(err) {
			t.Errorf("IsCommFailure(%v) = false", err)
		}
	}
	if IsCommFailure(ErrBadRank) || IsCommFailure(nil) {
		t.Error("IsCommFailure too broad")
	}
}

// A Recv with no sender must unwind through the op deadline, not block
// forever, on both transports.
func TestOpTimeoutRecv(t *testing.T) {
	build := map[string]func() (Network, error){
		"mem": func() (Network, error) { return NewMem(2, 1, WithMemOpTimeout(100*time.Millisecond)) },
		"tcp": func() (Network, error) { return NewTCP(2, 1, WithOpTimeout(100*time.Millisecond)) },
	}
	for name, mk := range build {
		t.Run(name, func(t *testing.T) {
			net, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = net.Close() }()
			ep, err := net.Endpoint(0)
			if err != nil {
				t.Fatal(err)
			}
			watchdog(t, 5*time.Second, func() {
				start := time.Now()
				_, err := ep.Recv(1, 0)
				if !errors.Is(err, ErrTimeout) {
					t.Errorf("Recv = %v, want ErrTimeout", err)
				}
				if time.Since(start) > 2*time.Second {
					t.Errorf("deadline took %v", time.Since(start))
				}
			})
		})
	}
}

// A peer closing its endpoint (process death) must fail blocked and future
// Recvs from it with ErrPeerFailed naming the rank, on both transports.
func TestPeerDeathFansOut(t *testing.T) {
	build := map[string]func() (Network, error){
		"mem": func() (Network, error) { return NewMem(3, 2) },
		"tcp": func() (Network, error) { return NewTCP(3, 2) },
	}
	for name, mk := range build {
		t.Run(name, func(t *testing.T) {
			net, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = net.Close() }()
			eps := make([]Endpoint, 3)
			for r := range eps {
				if eps[r], err = net.Endpoint(r); err != nil {
					t.Fatal(err)
				}
			}
			// Undelivered frames from the dying peer must be receivable
			// before the death is reported (no data loss on the lane).
			if err := eps[1].Send(0, 0, bufpool.Get(8)); err != nil {
				t.Fatal(err)
			}
			// A blocked Recv and a post-death Recv both observe the failure.
			blocked := make(chan error, 1)
			go func() {
				_, err := eps[2].Recv(1, 1)
				blocked <- err
			}()
			time.Sleep(20 * time.Millisecond)
			if err := eps[1].Close(); err != nil {
				t.Fatal(err)
			}
			watchdog(t, 5*time.Second, func() {
				if err := <-blocked; !errors.Is(err, ErrPeerFailed) {
					t.Errorf("blocked Recv = %v, want ErrPeerFailed", err)
				}
				if data, err := eps[0].Recv(1, 0); err != nil || len(data) != 8 {
					t.Errorf("pre-death frame: %v (len %d), want delivery", err, len(data))
				} else {
					bufpool.Put(data)
				}
				_, err := eps[0].Recv(1, 0)
				if r, ok := FailedRank(err); !ok || r != 1 {
					t.Errorf("post-death Recv = %v, want PeerFailedError{1}", err)
				}
				// Sends to the dead peer must fail too, not buffer forever.
				deadline := time.Now().Add(4 * time.Second)
				for {
					err := eps[0].Send(1, 0, bufpool.Get(8))
					if err != nil {
						if !errors.Is(err, ErrPeerFailed) && !errors.Is(err, ErrClosed) {
							t.Errorf("Send to dead peer = %v", err)
						}
						break
					}
					if time.Now().After(deadline) {
						t.Error("Send to dead peer kept succeeding")
						break
					}
					time.Sleep(5 * time.Millisecond)
				}
			})
		})
	}
}

// Abort poisons exactly the (to, stream) lane it names: the victim's Recv on
// that lane fails with the origin's rank; other lanes stay healthy.
func TestAbortPoisonsLane(t *testing.T) {
	build := map[string]func() (Network, error){
		"mem": func() (Network, error) { return NewMem(3, 2) },
		"tcp": func() (Network, error) { return NewTCP(3, 2) },
	}
	for name, mk := range build {
		t.Run(name, func(t *testing.T) {
			net, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = net.Close() }()
			eps := make([]Endpoint, 3)
			for r := range eps {
				if eps[r], err = net.Endpoint(r); err != nil {
					t.Fatal(err)
				}
			}
			// Rank 0 aborts its lane to rank 1 on stream 0, attributing the
			// failure to rank 2 (abort attribution crosses communicators).
			if err := Abort(eps[0], 1, 0, 2); err != nil {
				t.Fatal(err)
			}
			watchdog(t, 5*time.Second, func() {
				_, err := eps[1].Recv(0, 0)
				if r, ok := FailedRank(err); !ok || r != 2 {
					t.Errorf("poisoned Recv = %v, want PeerFailedError{2}", err)
				}
				if !errors.Is(err, ErrAborted) {
					t.Errorf("poisoned Recv = %v, want ErrAborted cause", err)
				}
				// Stream 1 of the same pair is untouched.
				if err := eps[0].Send(1, 1, bufpool.Get(16)); err != nil {
					t.Fatal(err)
				}
				data, err := eps[1].Recv(0, 1)
				if err != nil || len(data) != 16 {
					t.Errorf("healthy lane after abort: %v", err)
				}
				if data != nil {
					bufpool.Put(data)
				}
			})
		})
	}
}

// An abort must overtake frames already queued on the lane once they are
// drained: data sent before the abort is still delivered first (mem fast
// path), then the poison fires.
func TestAbortAfterQueuedData(t *testing.T) {
	net, err := NewMem(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	ep0, _ := net.Endpoint(0)
	ep1, _ := net.Endpoint(1)
	if err := ep0.Send(1, 0, bufpool.Get(4)); err != nil {
		t.Fatal(err)
	}
	if err := Abort(ep0, 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	watchdog(t, 5*time.Second, func() {
		data, err := ep1.Recv(0, 0)
		if err != nil || len(data) != 4 {
			t.Fatalf("queued frame after abort: %v", err)
		}
		bufpool.Put(data)
		if _, err := ep1.Recv(0, 0); !errors.Is(err, ErrAborted) {
			t.Errorf("drained lane = %v, want ErrAborted", err)
		}
	})
}

// Heartbeats keep an idle healthy mesh alive (no liveness false positives)
// and detect a peer that stops emitting frames. Worker 1 runs without
// heartbeats against worker 0's 20ms interval, so worker 0's liveness window
// (4x interval) expires and classifies rank 1 as failed.
func TestHeartbeatLiveness(t *testing.T) {
	addrs, err := FreeAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	eps := make([]Endpoint, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var opts []WorkerOption
			if r == 0 {
				opts = append(opts, WithTCPOptions(WithHeartbeat(20*time.Millisecond)))
			}
			eps[r], errs[r] = NewTCPWorker(r, 1, addrs, opts...)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", r, err)
		}
	}
	defer func() {
		for _, ep := range eps {
			if ep != nil {
				_ = ep.Close()
			}
		}
	}()
	watchdog(t, 10*time.Second, func() {
		_, err := eps[0].Recv(1, 0)
		if !errors.Is(err, ErrPeerFailed) {
			t.Errorf("Recv from silent peer = %v, want ErrPeerFailed", err)
		}
		if !errors.Is(err, ErrLiveness) {
			t.Errorf("Recv from silent peer = %v, want ErrLiveness cause", err)
		}
	})
}

// A symmetric heartbeat mesh must stay healthy through idle periods many
// times the liveness window, and still deliver data afterwards.
func TestHeartbeatKeepsIdleMeshAlive(t *testing.T) {
	net, err := NewTCP(2, 1, WithHeartbeat(10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	ep0, _ := net.Endpoint(0)
	ep1, _ := net.Endpoint(1)
	time.Sleep(300 * time.Millisecond) // ~7 liveness windows of silence
	if err := ep0.Send(1, 0, bufpool.Get(32)); err != nil {
		t.Fatal(err)
	}
	watchdog(t, 5*time.Second, func() {
		data, err := ep1.Recv(0, 0)
		if err != nil || len(data) != 32 {
			t.Fatalf("Recv after idle = %v (len %d)", err, len(data))
		}
		bufpool.Put(data)
	})
}

// The two-tier error lift runs on every intra-host Send and Recv, so with no
// error to lift it must allocate nothing (its errors.As target escapes).
func TestMapIntraErrNilAllocatesNothing(t *testing.T) {
	e := &twoTierEndpoint{net: &twoTier{perHost: 2}}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := e.mapIntraErr(nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("mapIntraErr(nil) allocates %v times per call, want 0", allocs)
	}
}
