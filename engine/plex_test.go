package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"aiacc/internal/bufpool"
	"aiacc/internal/leakcheck"
	"aiacc/transport"
)

// plexPair is a two-rank memnet lane with a tag table on rank 0, the
// receiving side, and rank 1's real endpoint, the sending side.
func plexPair(t testing.TB) (recv *plexTable, send transport.Endpoint, net transport.Network) {
	t.Helper()
	net, err := transport.NewMem(2, 1, transport.WithBuffer(64))
	if err != nil {
		t.Fatal(err)
	}
	ep0, err := net.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	ep1, err := net.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	return newPlexTable(ep0, 1, 2), ep1, net
}

// TestPlexTagQueueBound feeds one tag more frames than the ring protocol can
// leave waiting for an operation. The frame past the bound must become a
// sticky lane error charged to the sender, the frames parked before it must
// still be delivered, and every buffer must go back to the pool.
func TestPlexTagQueueBound(t *testing.T) {
	base := leakcheck.Take()
	recvT, ep1, net := plexPair(t)
	defer func() { _ = net.Close() }()
	const deep, other = 7, 3
	sender := plexEndpoint{t: newPlexTable(ep1, 1, 2), tag: deep}
	for i := 0; i <= recvT.limit; i++ {
		if err := sender.Send(0, 0, bufpool.Get(16)); err != nil {
			t.Fatal(err)
		}
	}

	// The waiter for another tag pulls and parks tag 7's frames until the
	// queue is full; the next frame fails the lane.
	_, err := plexEndpoint{t: recvT, tag: other}.Recv(1, 0)
	if !errors.Is(err, errPlexOverflow) || !transport.IsCommFailure(err) {
		t.Fatalf("recv past the bound: %v, want a peer failure caused by errPlexOverflow", err)
	}
	if rank, ok := transport.FailedRank(err); !ok || rank != 1 {
		t.Errorf("failure charged to rank %d (%v), want 1", rank, ok)
	}
	deepView := plexEndpoint{t: recvT, tag: deep}
	for i := 0; i < recvT.limit; i++ {
		b, err := deepView.Recv(1, 0)
		if err != nil {
			t.Fatalf("parked frame %d: %v", i, err)
		}
		bufpool.Put(b)
	}
	if _, err := deepView.Recv(1, 0); !errors.Is(err, errPlexOverflow) {
		t.Fatalf("recv after the parked frames: %v, want the sticky overflow", err)
	}
	if err := base.Buffers(5 * time.Second); err != nil {
		t.Error(err)
	}
}

// plexFrames cuts a fuzz input into at most 64 raw frames: each is a length
// byte (mod 65) and that many following bytes, fewer where the input ends.
func plexFrames(in []byte) [][]byte {
	var frames [][]byte
	for len(in) > 0 && len(frames) < 64 {
		n := min(int(in[0])%65, len(in)-1)
		frames = append(frames, in[1:1+n])
		in = in[1+n:]
	}
	return frames
}

// plexSeed encodes frames for plexFrames: count frames of size bytes each,
// their last four bytes the tag.
func plexSeed(count, size int, tag uint32) []byte {
	var in []byte
	for range count {
		fr := make([]byte, size)
		if size >= plexTagBytes {
			binary.LittleEndian.PutUint32(fr[size-plexTagBytes:], tag)
		}
		in = append(append(in, byte(size)), fr...)
	}
	return in
}

// FuzzPlexRecv feeds arbitrary frames, short ones and arbitrary tags
// included, over a memnet lane into one unit's tagging endpoint. It must
// never panic; every receive returns the next frame tagged for the unit,
// minus the tag, or the lane's sticky error; and every buffer goes back to
// the pool.
func FuzzPlexRecv(f *testing.F) {
	// TestPlexTagQueueBound's shapes: one frame past the bound for tag 7,
	// received as another tag and as tag 7.
	f.Add(plexSeed(5, 20, 7), uint32(3))
	f.Add(plexSeed(5, 20, 7), uint32(7))
	f.Add(append(plexSeed(2, 8, 7), plexSeed(1, 3, 0)...), uint32(7))
	f.Add(append(plexSeed(3, 4, 1), plexSeed(2, 12, 9)...), uint32(9))
	f.Fuzz(func(t *testing.T, in []byte, tag uint32) {
		base := leakcheck.Take()
		recvT, ep1, net := plexPair(t)
		frames := plexFrames(in)
		// What the table must do with the frames, in order: hand over the
		// unit's own, park the others up to the bound, and fail the lane
		// on a short frame or the frame past the bound.
		var want [][]byte
		fails := false
		parked := make(map[uint32]int)
		for _, fr := range frames {
			if len(fr) < plexTagBytes {
				fails = true
				break
			}
			ftag := binary.LittleEndian.Uint32(fr[len(fr)-plexTagBytes:])
			switch {
			case ftag == tag:
				want = append(want, fr[:len(fr)-plexTagBytes])
			case parked[ftag] == recvT.limit:
				fails = true
			default:
				parked[ftag]++
			}
			if fails {
				break
			}
		}
		for _, fr := range frames {
			b := bufpool.Get(len(fr))
			copy(b, fr)
			if err := ep1.Send(0, 0, b); err != nil {
				t.Fatal(err)
			}
		}
		view := plexEndpoint{t: recvT, tag: tag}
		for i, w := range want {
			got, err := view.Recv(1, 0)
			if err != nil {
				t.Fatalf("frame %d of tag %d: %v", i, tag, err)
			}
			if !bytes.Equal(got, w) {
				t.Fatalf("frame %d of tag %d = %x, want %x", i, tag, got, w)
			}
			bufpool.Put(got)
		}
		if fails {
			_, err := view.Recv(1, 0)
			if err == nil {
				t.Fatal("recv past a malformed or excess frame succeeded")
			}
			if _, again := view.Recv(1, 0); again != err {
				t.Fatalf("lane error %v then %v, want it sticky", err, again)
			}
		}
		recvT.drain()
		_ = net.Close()
		if err := base.Buffers(5 * time.Second); err != nil {
			t.Fatal(err)
		}
	})
}
