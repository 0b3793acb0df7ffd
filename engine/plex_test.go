package engine

import (
	"errors"
	"testing"
	"time"

	"aiacc/internal/bufpool"
	"aiacc/internal/leakcheck"
	"aiacc/mpi"
	"aiacc/transport"
)

// TestPlexTagQueueBound feeds one tag more frames than the ring protocol can
// leave waiting for an operation. The frame past the bound must become a
// sticky lane error charged to the sender, the frames parked before it must
// still be delivered, and every buffer must go back to the pool.
func TestPlexTagQueueBound(t *testing.T) {
	base := leakcheck.Take()
	net, err := transport.NewMem(2, 1, transport.WithBuffer(16))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	ep0, err := net.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	ep1, err := net.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	recvT := newPlexTable(mpi.NewWorld(ep0), 1)
	sendT := newPlexTable(mpi.NewWorld(ep1), 1)
	const deep, other = 7, 3
	for i := 0; i <= recvT.limit; i++ {
		if err := sendT.send(0, 0, bufpool.Get(16), deep); err != nil {
			t.Fatal(err)
		}
	}

	// The waiter for another tag pulls and parks tag 7's frames until the
	// queue is full; the next frame fails the lane.
	_, err = recvT.recv(1, 0, other)
	if !errors.Is(err, errPlexOverflow) || !transport.IsCommFailure(err) {
		t.Fatalf("recv past the bound: %v, want a peer failure caused by errPlexOverflow", err)
	}
	if rank, ok := transport.FailedRank(err); !ok || rank != 1 {
		t.Errorf("failure charged to rank %d (%v), want 1", rank, ok)
	}
	for i := 0; i < recvT.limit; i++ {
		b, err := recvT.recv(1, 0, deep)
		if err != nil {
			t.Fatalf("parked frame %d: %v", i, err)
		}
		bufpool.Put(b)
	}
	if _, err := recvT.recv(1, 0, deep); !errors.Is(err, errPlexOverflow) {
		t.Fatalf("recv after the parked frames: %v, want the sticky overflow", err)
	}
	if err := base.Buffers(5 * time.Second); err != nil {
		t.Error(err)
	}
}
