package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"aiacc/internal/leakcheck"
)

func TestFreeAddrs(t *testing.T) {
	addrs, err := FreeAddrs(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 4 {
		t.Fatalf("got %d addrs", len(addrs))
	}
	seen := map[string]bool{}
	for _, a := range addrs {
		if seen[a] {
			t.Fatalf("duplicate address %s", a)
		}
		seen[a] = true
	}
}

// startWorkers rendezvouses `size` workers concurrently (each as its own
// "process" here, but the code path is identical across real processes).
func startWorkers(t *testing.T, size, streams int) []Endpoint {
	t.Helper()
	addrs, err := FreeAddrs(size)
	if err != nil {
		t.Fatal(err)
	}
	eps := make([]Endpoint, size)
	var wg sync.WaitGroup
	errc := make(chan error, size)
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ep, err := NewTCPWorker(r, streams, addrs, WithDialTimeout(10*time.Second))
			if err != nil {
				errc <- fmt.Errorf("rank %d: %w", r, err)
				return
			}
			eps[r] = ep
		}(r)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, ep := range eps {
			if ep != nil {
				_ = ep.Close()
			}
		}
	})
	return eps
}

func TestTCPWorkerMesh(t *testing.T) {
	const size, streams = 3, 2
	eps := startWorkers(t, size, streams)
	// Full all-to-all exchange on every stream.
	var wg sync.WaitGroup
	errc := make(chan error, size*size*streams*2)
	for r := 0; r < size; r++ {
		for peer := 0; peer < size; peer++ {
			if peer == r {
				continue
			}
			for s := 0; s < streams; s++ {
				wg.Add(2)
				go func(r, peer, s int) {
					defer wg.Done()
					msg := []byte(fmt.Sprintf("%d->%d/%d", r, peer, s))
					if err := eps[r].Send(peer, s, msg); err != nil {
						errc <- err
					}
				}(r, peer, s)
				go func(r, peer, s int) {
					defer wg.Done()
					got, err := eps[r].Recv(peer, s)
					if err != nil {
						errc <- err
						return
					}
					want := fmt.Sprintf("%d->%d/%d", peer, r, s)
					if string(got) != want {
						errc <- fmt.Errorf("got %q want %q", got, want)
					}
				}(r, peer, s)
			}
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// Workers that start at staggered times must still rendezvous: the dialers
// retry until peers bind.
func TestTCPWorkerStaggeredStart(t *testing.T) {
	addrs, err := FreeAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	var ep0, ep1 Endpoint
	var wg sync.WaitGroup
	errc := make(chan error, 2)
	wg.Add(1)
	go func() {
		defer wg.Done()
		var err error
		ep0, err = NewTCPWorker(0, 1, addrs, WithDialTimeout(10*time.Second))
		if err != nil {
			errc <- err
		}
	}()
	time.Sleep(300 * time.Millisecond) // rank 1 boots late
	wg.Add(1)
	go func() {
		defer wg.Done()
		var err error
		ep1, err = NewTCPWorker(1, 1, addrs, WithDialTimeout(10*time.Second))
		if err != nil {
			errc <- err
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	defer func() { _ = ep0.Close(); _ = ep1.Close() }()
	if err := ep0.Send(1, 0, []byte("late")); err != nil {
		t.Fatal(err)
	}
	got, err := ep1.Recv(0, 0)
	if err != nil || string(got) != "late" {
		t.Fatalf("recv = %q, %v", got, err)
	}
}

func TestTCPWorkerValidation(t *testing.T) {
	if _, err := NewTCPWorker(0, 1, nil); !errors.Is(err, ErrBadRank) {
		t.Errorf("empty addrs error = %v", err)
	}
	if _, err := NewTCPWorker(5, 1, []string{"a", "b"}); !errors.Is(err, ErrBadRank) {
		t.Errorf("bad rank error = %v", err)
	}
	if _, err := NewTCPWorker(0, 0, []string{"a", "b"}); !errors.Is(err, ErrBadStream) {
		t.Errorf("bad streams error = %v", err)
	}
}

// A worker whose mesh cannot complete must fail with ErrRendezvous, not hang,
// and leave nothing behind. First no peer listens at all (the dial side
// fails). Then a peer accepts rank 0's socket and either never dials back or
// dials back and never sends its handshake (the accept side fails, in Accept
// or in the header read). There, the socket rank 0 dialed must be closed on
// return, and no goroutine establish started may outlive it.
func TestTCPWorkerTimeout(t *testing.T) {
	addrs, err := FreeAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = NewTCPWorker(0, 1, addrs, WithDialTimeout(400*time.Millisecond))
	if !errors.Is(err, ErrRendezvous) {
		t.Fatalf("no peer: error = %v, want ErrRendezvous", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("no peer: timeout took %v", elapsed)
	}

	for _, dialBack := range []bool{false, true} {
		peer, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[1] = peer.Addr().String()
		accepted := make(chan net.Conn, 1)
		var back net.Conn
		go func() {
			defer close(accepted)
			c, err := peer.Accept()
			if err != nil {
				return
			}
			if dialBack {
				// Rank 0 dials only after binding, so its listener is up.
				back, _ = net.Dial("tcp", addrs[0])
			}
			accepted <- c
		}()

		snap := leakcheck.Take()
		_, err = NewTCPWorker(0, 1, addrs, WithDialTimeout(400*time.Millisecond))
		if !errors.Is(err, ErrRendezvous) {
			t.Fatalf("dialBack=%v: error = %v, want ErrRendezvous", dialBack, err)
		}
		conn, ok := <-accepted
		if !ok {
			t.Fatalf("dialBack=%v: rank 0 never dialed the peer", dialBack)
		}
		_ = conn.SetReadDeadline(time.Now().Add(time.Second))
		var hdr [8]byte
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			t.Fatalf("dialBack=%v: read handshake: %v", dialBack, err)
		}
		if _, err := conn.Read(hdr[:1]); err != io.EOF {
			t.Fatalf("dialBack=%v: read after failed rendezvous = %v, want io.EOF", dialBack, err)
		}
		if err := snap.Goroutines(2 * time.Second); err != nil {
			t.Fatal(err)
		}
		_ = conn.Close()
		_ = peer.Close()
		if back != nil {
			_ = back.Close()
		}
	}
}
