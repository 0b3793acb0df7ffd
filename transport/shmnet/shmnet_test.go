package shmnet

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"aiacc/internal/bufpool"
	"aiacc/internal/leakcheck"
	"aiacc/transport"
)

func payload(n int, seed byte) []byte {
	b := bufpool.Get(n)
	for i := range b {
		b[i] = seed + byte(i)
	}
	return b
}

func mustEndpoint(t *testing.T, net transport.Network, r int) transport.Endpoint {
	t.Helper()
	ep, err := net.Endpoint(r)
	if err != nil {
		t.Fatal(err)
	}
	return ep
}

func TestShmSendRecv(t *testing.T) {
	base := leakcheck.Take()
	net, err := New(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	a, b := mustEndpoint(t, net, 0), mustEndpoint(t, net, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for s := 0; s < 2; s++ {
			for i := 0; i < 20; i++ {
				if err := a.Send(1, s, payload(100+16*i, byte(s))); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}
	}()
	for s := 0; s < 2; s++ {
		for i := 0; i < 20; i++ {
			got, err := b.Recv(0, s)
			if err != nil {
				t.Fatalf("recv: %v", err)
			}
			want := payload(100+16*i, byte(s))
			if !bytes.Equal(got, want) {
				t.Fatalf("stream %d frame %d: payload mismatch", s, i)
			}
			bufpool.Put(want)
			bufpool.Put(got)
		}
	}
	wg.Wait()
	if err := net.Close(); err != nil {
		t.Fatal(err)
	}
	if err := base.Buffers(5 * time.Second); err != nil {
		t.Error(err)
	}
}

// TestShmLargeFrame streams a frame much larger than the ring through it.
func TestShmLargeFrame(t *testing.T) {
	net, err := New(2, 1, WithRingBytes(minRingBytes))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	a, b := mustEndpoint(t, net, 0), mustEndpoint(t, net, 1)
	const n = 1 << 20
	errCh := make(chan error, 1)
	go func() { errCh <- a.Send(1, 0, payload(n, 7)) }()
	got, err := b.Recv(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	want := payload(n, 7)
	if !bytes.Equal(got, want) {
		t.Fatal("large frame corrupted in transit")
	}
	bufpool.Put(want)
	bufpool.Put(got)
}

func TestShmSelfSend(t *testing.T) {
	net, err := New(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	a := mustEndpoint(t, net, 0)
	if err := a.Send(0, 0, payload(64, 3)); err != nil {
		t.Fatal(err)
	}
	got, err := a.Recv(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := payload(64, 3)
	if !bytes.Equal(got, want) {
		t.Fatal("self-send payload mismatch")
	}
	bufpool.Put(want)
	bufpool.Put(got)
}

// TestShmAttach exercises the multi-process rendezvous path in-process: two
// endpoints attach to the same named file in either order, a duplicate rank
// claim is rejected, and a geometry mismatch fails loudly.
func TestShmAttach(t *testing.T) {
	path := filepath.Join(t.TempDir(), "region")
	a, err := Attach(path, 0, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Attach(path, 1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if _, err := Attach(path, 1, 2, 1); !errors.Is(err, ErrDuplicateRank) {
		t.Fatalf("duplicate rank attach: got %v, want ErrDuplicateRank", err)
	}
	if _, err := Attach(path, 0, 3, 1); err == nil {
		t.Fatal("geometry mismatch accepted")
	}

	if err := a.Send(1, 0, payload(512, 9)); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := payload(512, 9)
	if !bytes.Equal(got, want) {
		t.Fatal("attach-mode payload mismatch")
	}
	bufpool.Put(want)
	bufpool.Put(got)
}

func TestShmCloseUnblocksRecv(t *testing.T) { testCloseUnblocksRecv(t) }

func testCloseUnblocksRecv(t *testing.T) {
	net, err := New(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	a := mustEndpoint(t, net, 0)
	errCh := make(chan error, 1)
	go func() {
		_, err := a.Recv(1, 0)
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	_ = a.Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, transport.ErrClosed) {
			t.Fatalf("got %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv not unblocked by Close")
	}
}

func TestShmPeerCloseFailsRecv(t *testing.T) { testPeerCloseFailsRecv(t) }

func testPeerCloseFailsRecv(t *testing.T) {
	net, err := New(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	a, b := mustEndpoint(t, net, 0), mustEndpoint(t, net, 1)
	// A queued frame must still be delivered after the peer closes.
	if err := a.Send(1, 0, payload(32, 1)); err != nil {
		t.Fatal(err)
	}
	_ = a.Close()
	got, err := b.Recv(0, 0)
	if err != nil {
		t.Fatalf("queued frame lost after peer close: %v", err)
	}
	bufpool.Put(got)
	_, err = b.Recv(0, 0)
	var pf *transport.PeerFailedError
	if !errors.As(err, &pf) || pf.Rank != 0 || !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("got %v, want PeerFailedError{Rank: 0, Cause: ErrClosed}", err)
	}
	// A send that has to block on the dead rank fails the same way (one
	// with ring room succeeds, exactly like memnet's buffered lanes).
	err = b.Send(0, 0, payload(DefaultRingBytes*2, 2))
	if !errors.As(err, &pf) || pf.Rank != 0 {
		t.Fatalf("send to dead peer: got %v, want PeerFailedError", err)
	}
}

func TestShmOpTimeout(t *testing.T) { testOpTimeout(t) }

func testOpTimeout(t *testing.T) {
	net, err := New(2, 1, WithOpTimeout(50*time.Millisecond), WithRingBytes(minRingBytes))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	a, b := mustEndpoint(t, net, 0), mustEndpoint(t, net, 1)
	if _, err := b.Recv(0, 0); !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("idle recv: got %v, want ErrTimeout", err)
	}
	// Fill the ring with nobody draining: the send must time out, and the
	// wedged lane must stay failed.
	err = a.Send(1, 0, payload(minRingBytes*2, 5))
	if !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("full-ring send: got %v, want ErrTimeout", err)
	}
	if err := a.Send(1, 0, payload(8, 5)); err == nil {
		t.Fatal("send on wedged lane succeeded")
	}
}

func TestShmAbort(t *testing.T) {
	net, err := New(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	a, b := mustEndpoint(t, net, 0), mustEndpoint(t, net, 1)
	if err := a.Send(1, 0, payload(48, 4)); err != nil {
		t.Fatal(err)
	}
	ab, ok := a.(transport.Aborter)
	if !ok {
		t.Fatal("shm endpoint does not implement Aborter")
	}
	if err := ab.Abort(1, 0, 0); err != nil {
		t.Fatal(err)
	}
	// The frame queued before the abort is delivered first.
	got, err := b.Recv(0, 0)
	if err != nil {
		t.Fatalf("pre-abort frame lost: %v", err)
	}
	bufpool.Put(got)
	for i := 0; i < 2; i++ { // the poison is sticky
		_, err = b.Recv(0, 0)
		var pf *transport.PeerFailedError
		if !errors.As(err, &pf) || pf.Rank != 0 || !errors.Is(err, transport.ErrAborted) {
			t.Fatalf("recv %d after abort: got %v, want PeerFailedError{Rank: 0, Cause: ErrAborted}", i, err)
		}
	}
}

func TestShmFrameTooLarge(t *testing.T) {
	net, err := New(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	a := mustEndpoint(t, net, 0)
	huge := make([]byte, maxFrameBytes+1)
	if err := a.Send(1, 0, huge); !errors.Is(err, transport.ErrFrameTooLarge) {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
}

func TestShmBadArgs(t *testing.T) {
	net, err := New(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	a := mustEndpoint(t, net, 0)
	if err := a.Send(2, 0, nil); !errors.Is(err, transport.ErrBadRank) {
		t.Fatalf("got %v, want ErrBadRank", err)
	}
	if err := a.Send(1, 1, nil); !errors.Is(err, transport.ErrBadStream) {
		t.Fatalf("got %v, want ErrBadStream", err)
	}
	if _, err := a.Recv(-1, 0); !errors.Is(err, transport.ErrBadRank) {
		t.Fatalf("got %v, want ErrBadRank", err)
	}
}

// TestShmZeroAllocSteadyState pins the 0 allocs/op acceptance criterion:
// once the pool is warm, a send/recv round trip allocates nothing — also
// when the receiver is already parked on the lane's wake as the frame lands
// (the signal and the reused backstop timer allocate nothing either).
func TestShmZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	net, err := New(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	a, b := mustEndpoint(t, net, 0), mustEndpoint(t, net, 1)
	const size = 64 << 10
	round := func() {
		if err := a.Send(1, 0, bufpool.Get(size)); err != nil {
			t.Fatal(err)
		}
		got, err := b.Recv(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		bufpool.Put(got)
	}
	for i := 0; i < 100; i++ { // warm the pool and the escalation paths
		round()
	}
	if avg := testing.AllocsPerRun(200, round); avg > 0.1 {
		t.Fatalf("steady-state round trip allocates %.2f times, want 0", avg)
	}

	// The parked round: a standing receiver blocks on the empty ring, and
	// the frame is sent only once it has published its waiting word.
	data := b.(*Endpoint).cons[0].data
	next, got := make(chan struct{}), make(chan error)
	go func() {
		for range next {
			buf, err := b.Recv(0, 0)
			bufpool.Put(buf)
			got <- err
		}
	}()
	defer close(next)
	parked := func() {
		next <- struct{}{}
		for data.waiting.Load() == 0 {
			runtime.Gosched()
		}
		if err := a.Send(1, 0, bufpool.Get(size)); err != nil {
			t.Fatal(err)
		}
		if err := <-got; err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		parked()
	}
	if avg := testing.AllocsPerRun(100, parked); avg > 0.1 {
		t.Fatalf("round trip to a parked receiver allocates %.2f times, want 0", avg)
	}
}

// TestShmPoolBalance runs mixed traffic, aborts and teardown and checks the
// wire pool ends balanced: the transport recycles every payload it accepts.
func TestShmPoolBalance(t *testing.T) {
	base := leakcheck.Take()
	net, err := New(3, 2, WithOpTimeout(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	eps := make([]transport.Endpoint, 3)
	for r := range eps {
		eps[r] = mustEndpoint(t, net, r)
	}
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			to := (r + 1) % 3
			from := (r + 2) % 3
			for i := 0; i < 50; i++ {
				if err := eps[r].Send(to, i%2, payload(1024, byte(r))); err != nil {
					t.Errorf("rank %d send: %v", r, err)
					return
				}
				got, err := eps[r].Recv(from, i%2)
				if err != nil {
					t.Errorf("rank %d recv: %v", r, err)
					return
				}
				bufpool.Put(got)
			}
		}(r)
	}
	wg.Wait()
	// Leave one undelivered frame in a ring; Send already recycled the
	// caller's slice, so teardown owes the pool nothing extra.
	if err := eps[0].Send(2, 0, payload(256, 9)); err != nil {
		t.Fatal(err)
	}
	if err := net.Close(); err != nil {
		t.Fatal(err)
	}
	if err := base.Buffers(5 * time.Second); err != nil {
		t.Error(err)
	}
	if err := base.Goroutines(5 * time.Second); err != nil {
		t.Error(err)
	}
}

func TestShmClosedEndpointOps(t *testing.T) {
	net, err := New(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	a := mustEndpoint(t, net, 0)
	_ = a.Close()
	if err := a.Send(1, 0, payload(16, 0)); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("send on closed: got %v, want ErrClosed", err)
	}
	if _, err := a.Recv(1, 0); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("recv on closed: got %v, want ErrClosed", err)
	}
}

func BenchmarkShmSendRecv(b *testing.B) {
	for _, size := range []int{64 << 10, 1 << 20, 4 << 20} {
		b.Run(fmt.Sprintf("bytes=%d", size), func(b *testing.B) {
			net, err := New(2, 1, WithRingBytes(1<<20))
			if err != nil {
				b.Fatal(err)
			}
			defer net.Close()
			src, _ := net.Endpoint(0)
			dst, _ := net.Endpoint(1)
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; i < b.N; i++ {
					got, err := dst.Recv(0, 0)
					if err != nil {
						b.Error(err)
						return
					}
					bufpool.Put(got)
				}
			}()
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := src.Send(1, 0, bufpool.Get(size)); err != nil {
					b.Fatal(err)
				}
			}
			<-done
		})
	}
}

// BenchmarkShmPingPong is the OSU-style latency probe: one round trip of a
// frame to an echoing peer and back, over a 1 MiB ring. A hop should cost
// about one wake plus one pass over the frame.
func BenchmarkShmPingPong(b *testing.B) {
	for _, size := range []int{64, 4 << 10, 64 << 10, 256 << 10} {
		b.Run(fmt.Sprintf("bytes=%d", size), func(b *testing.B) {
			net, err := New(2, 1, WithRingBytes(1<<20))
			if err != nil {
				b.Fatal(err)
			}
			defer net.Close()
			ping, _ := net.Endpoint(0)
			pong, _ := net.Endpoint(1)
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; i < b.N; i++ {
					got, err := pong.Recv(0, 0)
					if err == nil {
						err = pong.Send(0, 0, got)
					}
					if err != nil {
						b.Error(err)
						return
					}
				}
			}()
			b.SetBytes(int64(2 * size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ping.Send(1, 0, bufpool.Get(size)); err != nil {
					b.Fatal(err)
				}
				got, err := ping.Recv(1, 0)
				if err != nil {
					b.Fatal(err)
				}
				bufpool.Put(got)
			}
			<-done
		})
	}
}

func TestMain(m *testing.M) {
	os.Exit(m.Run())
}
