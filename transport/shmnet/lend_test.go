package shmnet

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"
	"unsafe"

	"aiacc/internal/bufpool"
	"aiacc/internal/leakcheck"
	"aiacc/transport"
)

// ringOffset returns where p lies in the ring of l, or -1 when it does not
// lie in it (a pooled copy).
func ringOffset(l *lane, p []byte) int {
	if cap(p) == 0 {
		return -1
	}
	base := uintptr(unsafe.Pointer(unsafe.SliceData(l.buf)))
	at := uintptr(unsafe.Pointer(unsafe.SliceData(p)))
	if at < base || at >= base+uintptr(len(l.buf)) {
		return -1
	}
	return int(at - base)
}

func asLender(t *testing.T, ep transport.Endpoint) transport.Lender {
	t.Helper()
	l, ok := ep.(transport.Lender)
	if !ok {
		t.Fatalf("%T does not implement transport.Lender", ep)
	}
	return l
}

// isPayload reports whether got is payload(n, seed).
func isPayload(got []byte, n int, seed byte) bool {
	want := payload(n, seed)
	defer bufpool.Put(want)
	return bytes.Equal(got, want)
}

// reserveFrame sends a frame of payload(n, seed) through a reservation.
func reserveFrame(t *testing.T, l transport.Lender, to, stream, n int, seed byte) {
	t.Helper()
	slot, err := l.Reserve(to, stream, n)
	if err != nil || slot == nil || len(slot) != n {
		t.Fatalf("reserve %d bytes: slot of %d, err %v", n, len(slot), err)
	}
	want := payload(n, seed)
	copy(slot, want)
	bufpool.Put(want)
	if err := l.Commit(to, stream, true); err != nil {
		t.Fatalf("commit: %v", err)
	}
}

// lendFrame lends the next frame, checks it against payload(n, seed) and
// releases it; it returns the frame's offset in the ring (-1: a copy).
func lendFrame(t *testing.T, l transport.Lender, from, stream, n int, seed byte, ring *lane) int {
	t.Helper()
	got, err := l.Lend(from, stream)
	if err != nil {
		t.Fatalf("lend: %v", err)
	}
	if !isPayload(got, n, seed) {
		t.Fatalf("lent %d bytes, want %d-byte payload(%d)", len(got), n, seed)
	}
	off := ringOffset(ring, got)
	if err := l.Release(from, stream); err != nil {
		t.Fatalf("release: %v", err)
	}
	return off
}

// TestShmLendLifecycle: a lend and a reservation each end exactly once, and
// while one holds its lane side, every other operation on that side is
// refused with ErrBusy instead of corrupting the ring.
func TestShmLendLifecycle(t *testing.T) {
	base := leakcheck.Take()
	net, err := New(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, b := mustEndpoint(t, net, 0), mustEndpoint(t, net, 1)
	la, lb := asLender(t, a), asLender(t, b)

	// Consumer side.
	if err := a.Send(1, 0, payload(100, 1)); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(1, 0, payload(200, 2)); err != nil {
		t.Fatal(err)
	}
	got, err := lb.Lend(0, 0)
	if err != nil || !isPayload(got, 100, 1) {
		t.Fatalf("lend: %v", err)
	}
	if ringOffset(b.(*Endpoint).cons[0], got) < 0 {
		t.Fatal("a frame of 100 bytes was not lent in place")
	}
	if _, err := lb.Lend(0, 0); !errors.Is(err, transport.ErrBusy) {
		t.Fatalf("second lend: got %v, want ErrBusy", err)
	}
	if _, err := b.Recv(0, 0); !errors.Is(err, transport.ErrBusy) {
		t.Fatalf("recv while lent: got %v, want ErrBusy", err)
	}
	if err := lb.Release(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := lb.Release(0, 0); !errors.Is(err, errNotHeld) {
		t.Fatalf("second release: got %v, want errNotHeld", err)
	}
	if got, err := b.Recv(0, 0); err != nil || !isPayload(got, 200, 2) {
		t.Fatalf("recv after release: %v", err)
	} else {
		bufpool.Put(got)
	}

	// Producer side.
	slot, err := la.Reserve(1, 0, 64)
	if err != nil || len(slot) != 64 || cap(slot) != 64 {
		t.Fatalf("reserve: len %d cap %d, err %v", len(slot), cap(slot), err)
	}
	if _, err := la.Reserve(1, 0, 64); !errors.Is(err, transport.ErrBusy) {
		t.Fatalf("second reserve: got %v, want ErrBusy", err)
	}
	if err := a.Send(1, 0, payload(8, 3)); !errors.Is(err, transport.ErrBusy) {
		t.Fatalf("send while reserved: got %v, want ErrBusy", err)
	}
	if err := a.(transport.Aborter).Abort(1, 0, 0); !errors.Is(err, transport.ErrBusy) {
		t.Fatalf("abort while reserved: got %v, want ErrBusy", err)
	}
	copy(slot, bytes.Repeat([]byte{0xAA}, 64))
	if err := la.Commit(1, 0, false); err != nil { // dropped
		t.Fatal(err)
	}
	if err := la.Commit(1, 0, true); !errors.Is(err, errNotHeld) {
		t.Fatalf("second commit: got %v, want errNotHeld", err)
	}
	reserveFrame(t, la, 1, 0, 64, 4)
	if got, err := b.Recv(0, 0); err != nil || !isPayload(got, 64, 4) {
		t.Fatalf("recv of the committed frame (the dropped one must not arrive): %v", err)
	} else {
		bufpool.Put(got)
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

// TestShmLendCloseDrains: Close waits for a lend and for a reservation to
// end before it unmaps the region, and the transport owes the pool nothing
// afterwards.
func TestShmLendCloseDrains(t *testing.T) {
	for _, held := range []string{"lend", "reservation", "copy lend"} {
		t.Run(held, func(t *testing.T) {
			base := leakcheck.Take()
			net, err := New(2, 1, WithRingBytes(minRingBytes))
			if err != nil {
				t.Fatal(err)
			}
			a, b := mustEndpoint(t, net, 0), mustEndpoint(t, net, 1)
			la, lb := asLender(t, a), asLender(t, b)
			var end func() error
			switch held {
			case "lend", "copy lend":
				n := 100
				if held == "copy lend" {
					n = minRingBytes / 2 // above half the ring with its length word
				}
				if err := a.Send(1, 0, payload(n, 1)); err != nil {
					t.Fatal(err)
				}
				if _, err := lb.Lend(0, 0); err != nil {
					t.Fatal(err)
				}
				end = func() error { return lb.Release(0, 0) }
			case "reservation":
				if _, err := la.Reserve(1, 0, 100); err != nil {
					t.Fatal(err)
				}
				end = func() error {
					if err := la.Commit(1, 0, true); !errors.Is(err, transport.ErrClosed) {
						return err
					}
					return nil
				}
			}
			closed := make(chan error, 1)
			go func() { closed <- net.Close() }()
			select {
			case err := <-closed:
				t.Fatalf("Close returned (%v) while a %s was held", err, held)
			case <-time.After(50 * time.Millisecond):
			}
			reg := a.(*Endpoint).reg
			if reg.mem == nil {
				t.Fatal("region unmapped under a held lane side")
			}
			if err := end(); err != nil {
				t.Fatal(err)
			}
			if err := <-closed; err != nil {
				t.Fatal(err)
			}
			if reg.mem != nil {
				t.Fatal("region still mapped after every lane side was released")
			}
			if err := base.Buffers(5 * time.Second); err != nil {
				t.Error(err)
			}
			if err := base.Goroutines(5 * time.Second); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestShmLendAbort: an abort that arrives while a frame is lent, or while
// the rank holds a reservation toward the aborting peer, is reported by the
// next receive; the held side still ends normally, and nothing leaks.
func TestShmLendAbort(t *testing.T) {
	base := leakcheck.Take()
	net, err := New(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, b := mustEndpoint(t, net, 0), mustEndpoint(t, net, 1)
	la, lb := asLender(t, a), asLender(t, b)
	wantAbort := func(err error) {
		t.Helper()
		var pf *transport.PeerFailedError
		if !errors.As(err, &pf) || pf.Rank != 7 || !errors.Is(err, transport.ErrAborted) {
			t.Fatalf("got %v, want an abort from rank 7", err)
		}
	}

	// b holds a lend of a's frame and a reservation toward a when a's abort
	// arrives; the marker queues behind the lent frame.
	reserveFrame(t, la, 1, 0, 300, 1)
	got, err := lb.Lend(0, 0)
	if err != nil || !isPayload(got, 300, 1) {
		t.Fatalf("lend: %v", err)
	}
	slot, err := lb.Reserve(0, 0, 40)
	if err != nil || slot == nil {
		t.Fatalf("reserve: %v", err)
	}
	if err := a.(transport.Aborter).Abort(1, 0, 7); err != nil {
		t.Fatal(err)
	}
	want := payload(40, 2)
	copy(slot, want)
	bufpool.Put(want)
	if err := lb.Commit(0, 0, true); err != nil {
		t.Fatal(err)
	}
	if err := lb.Release(0, 0); err != nil {
		t.Fatal(err)
	}
	_, err = lb.Lend(0, 0)
	wantAbort(err)
	_, err = b.Recv(0, 0)
	wantAbort(err)
	if off := lendFrame(t, la, 1, 0, 40, 2, a.(*Endpoint).cons[1]); off < 0 {
		t.Fatal("a 40-byte frame was lent as a copy")
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

// TestShmLendSkipWord puts the producer cursor at every 4-byte offset of a
// 4 KiB ring and sends frames around half the ring there, by Send and by
// Reserve, received by Lend and by Recv. A frame of at most half the ring,
// length word included, lies whole: where it would straddle the ring's end,
// it starts at the ring's start instead. Larger frames stream across the
// end and are lent as copies.
func TestShmLendSkipWord(t *testing.T) {
	base := leakcheck.Take()
	const ring, half = minRingBytes, minRingBytes / 2
	net, err := New(2, 1, WithRingBytes(ring))
	if err != nil {
		t.Fatal(err)
	}
	a, b := mustEndpoint(t, net, 0), mustEndpoint(t, net, 1)
	la, lb := asLender(t, a), asLender(t, b)
	lane := b.(*Endpoint).cons[0]
	pos := func() int { return int(align4(lane.tail.Load()) & lane.mask) }
	// advance moves the cursor to offset o with one streamed frame, longer
	// than the ring, so that it never takes a skip.
	advance := func(o int) {
		n := ring + (o-pos()+ring)%ring - 4
		errc := make(chan error, 1)
		go func() { errc <- a.Send(1, 0, payload(n, 0)) }()
		got, err := b.Recv(0, 0)
		if err != nil || len(got) != n {
			t.Fatalf("filler: %v", err)
		}
		bufpool.Put(got)
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		if pos() != o {
			t.Fatalf("cursor at %d after the filler, want %d", pos(), o)
		}
	}
	sizes := []int{half - 12, half - 8, half - 5, half - 4, half - 3, half}
	for o := 0; o < ring; o += 4 {
		for i, n := range sizes {
			advance(o)
			seed := byte(o/4 + i)
			whole := 4+n <= half
			if whole && i%2 == 0 {
				reserveFrame(t, la, 1, 0, n, seed)
			} else {
				if slot, err := la.Reserve(1, 0, n); !whole && (slot != nil || err != nil) {
					t.Fatalf("offset %d: reserve of %d bytes above half the ring: slot of %d, err %v", o, n, len(slot), err)
				} else if whole && (slot == nil || la.Commit(1, 0, false) != nil) {
					t.Fatalf("offset %d: reserve of %d bytes: %v", o, n, err)
				}
				if err := a.Send(1, 0, payload(n, seed)); err != nil {
					t.Fatal(err)
				}
			}
			want := 4
			if o+4+n <= ring {
				want = o + 4
			}
			if i%4 == 3 {
				got, err := b.Recv(0, 0)
				if err != nil || !isPayload(got, n, seed) {
					t.Fatalf("offset %d: recv of %d bytes: %v", o, n, err)
				}
				bufpool.Put(got)
				continue
			}
			off := lendFrame(t, lb, 0, 0, n, seed, lane)
			switch {
			case whole && off != want:
				t.Fatalf("offset %d: %d-byte frame lent at ring offset %d, want %d", o, n, off, want)
			case !whole && off != -1:
				t.Fatalf("offset %d: %d-byte frame above half the ring lent in place", o, n)
			}
		}
	}
	if err := net.Close(); err != nil {
		t.Fatal(err)
	}
	if err := base.Buffers(5 * time.Second); err != nil {
		t.Error(err)
	}
}

// TestShmLendLargeFrame: frames above half the ring still stream through
// it — also frames larger than the ring — and a lend of one is a pooled
// copy that Release recycles.
func TestShmLendLargeFrame(t *testing.T) {
	base := leakcheck.Take()
	net, err := New(2, 1, WithRingBytes(minRingBytes))
	if err != nil {
		t.Fatal(err)
	}
	a, b := mustEndpoint(t, net, 0), mustEndpoint(t, net, 1)
	lb := asLender(t, b)
	sizes := []int{minRingBytes/2 - 3, minRingBytes, 5*minRingBytes + 1}
	errc := make(chan error, 1)
	go func() {
		for i, n := range sizes {
			if err := a.Send(1, 0, payload(n, byte(i))); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	for i, n := range sizes {
		if off := lendFrame(t, lb, 0, 0, n, byte(i), b.(*Endpoint).cons[0]); off != -1 {
			t.Fatalf("%d-byte frame lent in place at %d", n, off)
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if err := net.Close(); err != nil {
		t.Fatal(err)
	}
	if err := base.Buffers(5 * time.Second); err != nil {
		t.Error(err)
	}
}

// TestShmLendAttach runs reservations and lends between two Attach
// endpoints of one region file, which wait without the in-process wakes.
func TestShmLendAttach(t *testing.T) {
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
	la, lb := asLender(t, a), asLender(t, b)
	for i := 0; i < 20; i++ {
		reserveFrame(t, la, 1, 0, 1000+i, byte(i))
		if off := lendFrame(t, lb, 0, 0, 1000+i, byte(i), b.(*Endpoint).cons[0]); off < 0 {
			t.Fatal("attach-mode frame lent as a copy")
		}
		if err := b.Send(0, 0, payload(500+i, byte(i))); err != nil {
			t.Fatal(err)
		}
		lendFrame(t, la, 1, 0, 500+i, byte(i), a.(*Endpoint).cons[1])
	}
}

// TestShmLayoutV1Rejected: a region written in the first layout, whose
// frames may straddle the ring's end anywhere, is refused by an attacher.
func TestShmLayoutV1Rejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "region")
	a, err := Attach(path, 0, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.(*Endpoint).reg.word(offVersion).Store(1)
	if _, err := Attach(path, 1, 2, 1); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("layout-1 region: got %v, want a version error", err)
	}
}

// stallFrame leaves in the ring what a sender stalled mid-frame leaves: the
// length word of an n-byte frame of zeros and the first k bytes of its body.
// It returns a function that writes the rest of the body.
func stallFrame(t *testing.T, e *Endpoint, to, stream, n, k int) func() {
	t.Helper()
	l := e.prod[to*e.streams+stream]
	l.mu.Lock()
	defer l.mu.Unlock()
	tail := l.tail.Load()
	start := l.place(tail, n)
	l.putHead(tail, start, uint32(n))
	l.publishTail(start + 4)
	body := make([]byte, n)
	if err := e.write(l, to, body[:k], e.deadline()); err != nil {
		t.Fatalf("write %d body bytes: %v", k, err)
	}
	return func() {
		l.mu.Lock()
		defer l.mu.Unlock()
		if err := e.write(l, to, body[k:], e.deadline()); err != nil {
			t.Fatalf("write the rest of the body: %v", err)
		}
	}
}

// TestShmRecvMidFrameFailureIsSticky: once a receive has consumed a frame's
// length word and then fails, as when the body stalls past the op timeout,
// the lane side is failed for good, like a send that fails mid-frame. The
// rest of the body may still land, and a later receive that went on would
// read body bytes (zeros here: an empty frame) as the next length word. The
// three places a body is awaited: Recv, a Lend in place, and a Lend of a
// frame above half the ring, which is copied.
func TestShmRecvMidFrameFailureIsSticky(t *testing.T) {
	net, err := New(2, 3, WithOpTimeout(50*time.Millisecond), WithRingBytes(minRingBytes))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	a, b := mustEndpoint(t, net, 0), mustEndpoint(t, net, 1)
	lb := asLender(t, b)
	cases := []struct {
		name    string
		stream  int
		n       int
		receive func(stream int) error
	}{
		{"recv", 0, 64, func(s int) error {
			p, err := b.Recv(0, s)
			bufpool.Put(p)
			return err
		}},
		{"lend in place", 1, 64, func(s int) error {
			_, err := lb.Lend(0, s)
			return err
		}},
		{"lend copied", 2, minRingBytes * 3 / 4, func(s int) error {
			_, err := lb.Lend(0, s)
			return err
		}},
	}
	for _, tc := range cases {
		finish := stallFrame(t, a.(*Endpoint), 1, tc.stream, tc.n, 16)
		first := tc.receive(tc.stream)
		if !errors.Is(first, transport.ErrTimeout) {
			t.Fatalf("%s: stalled body: got %v, want ErrTimeout", tc.name, first)
		}
		finish()
		if err := a.Send(1, tc.stream, payload(8, 1)); err != nil {
			t.Fatalf("%s: send after the stalled frame: %v", tc.name, err)
		}
		p, err := b.Recv(0, tc.stream)
		bufpool.Put(p)
		if err == nil || err.Error() != first.Error() {
			t.Fatalf("%s: next Recv: got %d bytes, err %v; want the sticky %v", tc.name, len(p), err, first)
		}
		p, err = lb.Lend(0, tc.stream)
		if err == nil || err.Error() != first.Error() {
			t.Fatalf("%s: next Lend: got %d bytes, err %v; want the sticky %v", tc.name, len(p), err, first)
		}
	}
}
