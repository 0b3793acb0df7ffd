package shmnet

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"aiacc/internal/bufpool"
	"aiacc/transport"
)

// The wake protocol of an in-process lane, as an abstract machine. A
// producer writes n units into a ring of capacity c and a consumer reads
// them, one unit per cursor store. Each side, finding its condition false,
// parks: publish its waiting word, re-check the cursor, block on its
// capacity-1 channel, clear the word. After each cursor store it signals:
// load the other side's waiting word, and if it was set, try-send on the
// other side's channel. Direction 0 ("data") is the consumer's wait and the
// producer's signal; direction 1 ("space") the reverse. Side 0 is the
// producer, side 1 the consumer, so side i waits on direction 1-i and
// signals direction i.
const (
	pcCheck   = iota // load the other cursor: move if the condition holds, else park
	pcMove           // store the own cursor
	pcLoad           // load the other side's waiting word
	pcSignal         // try-send if the loaded word was set
	pcPublish        // store the own waiting word
	pcRecheck        // load the other cursor again
	pcBlock          // receive a token (enabled only while one is pending)
	pcClear          // clear the own waiting word
	pcDone
	pcStoreLate // mutant only: the cursor store that follows an early load
)

type wakeVariant struct {
	noRecheck       bool // mutant: block straight after publishing
	loadBeforeStore bool // mutant: signal side loads waiting before the cursor store
}

type wakeState struct {
	tail, head uint8
	waiting    [2]bool // by direction
	token      [2]bool // by direction: the channel holds a token
	pc         [2]uint8
	saw        [2]bool // the waiting word a side loaded in its signal phase
}

type wakeModel struct {
	n, c    uint8
	variant wakeVariant
	seen    map[wakeState]bool
	states  int
}

func (m *wakeModel) cond(s *wakeState, side int) bool {
	if side == 0 {
		return s.tail-s.head < m.c
	}
	return s.tail > s.head
}

func (m *wakeModel) finished(s *wakeState, side int) bool {
	if side == 0 {
		return s.tail == m.n
	}
	return s.head == m.n
}

// step advances one side by one atomic action; it reports false when the
// side cannot move (done, or blocked with no token pending).
func (m *wakeModel) step(s wakeState, side int) (wakeState, bool) {
	wait, sig := 1-side, side
	switch s.pc[side] {
	case pcCheck:
		switch {
		case m.finished(&s, side):
			s.pc[side] = pcDone
		case m.cond(&s, side) && m.variant.loadBeforeStore:
			s.saw[side] = s.waiting[sig]
			s.pc[side] = pcStoreLate
		case m.cond(&s, side):
			s.pc[side] = pcMove
		default:
			s.pc[side] = pcPublish
		}
	case pcMove, pcStoreLate:
		if side == 0 {
			s.tail++
		} else {
			s.head++
		}
		if s.pc[side] == pcStoreLate {
			s.pc[side] = pcSignal
		} else {
			s.pc[side] = pcLoad
		}
	case pcLoad:
		s.saw[side] = s.waiting[sig]
		s.pc[side] = pcSignal
	case pcSignal:
		if s.saw[side] {
			s.token[sig] = true // a pending token absorbs the send
		}
		s.saw[side] = false
		s.pc[side] = pcCheck
	case pcPublish:
		s.waiting[wait] = true
		if m.variant.noRecheck {
			s.pc[side] = pcBlock
		} else {
			s.pc[side] = pcRecheck
		}
	case pcRecheck:
		if m.cond(&s, side) {
			s.pc[side] = pcClear
		} else {
			s.pc[side] = pcBlock
		}
	case pcBlock:
		if !s.token[wait] {
			return s, false
		}
		s.token[wait] = false
		s.pc[side] = pcClear
	case pcClear:
		s.waiting[wait] = false
		s.pc[side] = pcCheck
	default:
		return s, false
	}
	return s, true
}

// explore walks every interleaving from s and returns the first terminal
// state in which a side is stuck: blocked with no token pending.
func (m *wakeModel) explore(s wakeState) error {
	if m.seen[s] {
		return nil
	}
	m.seen[s] = true
	m.states++
	moved := false
	for side := 0; side < 2; side++ {
		next, ok := m.step(s, side)
		if !ok {
			continue
		}
		moved = true
		if err := m.explore(next); err != nil {
			return err
		}
	}
	if moved || (s.pc[0] == pcDone && s.pc[1] == pcDone) {
		return nil
	}
	for side, name := range [2]string{"producer", "consumer"} {
		if s.pc[side] == pcBlock && m.cond(&s, side) {
			return fmt.Errorf("lost wake-up: %s blocked while its condition holds and no token is pending (%+v)", name, s)
		}
	}
	return fmt.Errorf("stuck: %+v", s)
}

func checkWakeModel(v wakeVariant) (states int, err error) {
	for n := uint8(2); n <= 3; n++ {
		for c := uint8(1); c <= 2; c++ {
			for stale := -1; stale < 2; stale++ {
				m := &wakeModel{n: n, c: c, variant: v, seen: map[wakeState]bool{}}
				var s wakeState
				if stale >= 0 {
					s.token[stale] = true
				}
				if err := m.explore(s); err != nil {
					return states, fmt.Errorf("n=%d c=%d stale=%d: %w", n, c, stale, err)
				}
				states += m.states
			}
		}
	}
	return states, nil
}

// TestShmWakeModel checks the lost-wake-up freedom of the lane wake protocol
// over every interleaving of producer and consumer, both directions, 2–3
// advances per side, with and without a stale token in either channel, and
// shows the check has teeth: each of the two classic mistakes is caught.
func TestShmWakeModel(t *testing.T) {
	states, err := checkWakeModel(wakeVariant{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d states, no lost wake-up", states)
	for name, v := range map[string]wakeVariant{
		"no re-check after publish":        {noRecheck: true},
		"load waiting before cursor store": {loadBeforeStore: true},
	} {
		if _, err := checkWakeModel(v); err == nil {
			t.Errorf("mutant %q: model found no lost wake-up", name)
		} else {
			t.Logf("mutant %q caught: %v", name, err)
		}
	}
}

// withBackstop raises the park timer for one test, so a lost wake-up hangs
// instead of costing one backstop interval.
func withBackstop(t *testing.T, d time.Duration) {
	old := parkBackstop
	parkBackstop = d
	t.Cleanup(func() { parkBackstop = old })
}

// TestShmWakeStress runs a 4-rank × 2-stream ring exchange on the smallest
// ring with the backstop out of reach, so both the full-ring and the
// empty-ring wait park and only a signal can end them. Frames run from 1 B
// to twice the ring. A rank sends frame i+1 only after it has received
// frame i, so every wait lies on a cycle around the ring: one lost wake-up
// stalls all ranks, and the watchdog reports the hang. Stream 1 takes the
// borrow path (transport.Lender): frames are sent through a reservation
// when the ring has the room, by Send otherwise, and received by Lend, so
// Release and Commit must wake a parked peer as read and write do.
func TestShmWakeStress(t *testing.T) {
	withBackstop(t, 30*time.Second)
	const ranks, streams = 4, 2
	rounds := 3000
	if testing.Short() {
		rounds = 1000
	}
	net, err := New(ranks, streams, WithRingBytes(minRingBytes))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	size := func(r, s, i int) int { return 1 + (i*7919+s*131+r*17)%(2*minRingBytes) }
	// Now and then one side stalls, so the other runs out of spin and parks.
	stall := func(i, phase int) {
		if (i+phase)%8 == 0 {
			time.Sleep(200 * time.Microsecond)
		}
	}
	parks := func() (send, recv int64) {
		for r := 0; r < ranks; r++ {
			met := mustEndpoint(t, net, r).(*Endpoint).met
			send += met.send.parks.Value()
			recv += met.recv.parks.Value()
		}
		return send, recv
	}
	send0, recv0 := parks()
	borrows := func() (lent, reserved int64) {
		for r := 0; r < ranks; r++ {
			met := mustEndpoint(t, net, r).(*Endpoint).met
			lent += met.lent.Value()
			reserved += met.reserved.Value()
		}
		return lent, reserved
	}
	lent0, reserved0 := borrows()

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		ep := mustEndpoint(t, net, r)
		lend := ep.(transport.Lender)
		to, from := (r+1)%ranks, (r+ranks-1)%ranks
		for s := 0; s < streams; s++ {
			credit := make(chan struct{}, rounds)
			wg.Add(2)
			go func(r, s int) {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					if i > 0 {
						<-credit
					}
					stall(i, r+s)
					if err := stressSend(ep, lend, s == 1, to, s, payload(size(r, s, i), byte(i))); err != nil {
						t.Errorf("rank %d stream %d send %d: %v", r, s, i, err)
						return
					}
				}
			}(r, s)
			go func(r, s int) {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					stall(i, 4+r+s)
					var got []byte
					var err error
					if s == 1 {
						got, err = lend.Lend(from, s)
					} else {
						got, err = ep.Recv(from, s)
					}
					if err != nil {
						t.Errorf("rank %d stream %d recv %d: %v", r, s, i, err)
						return
					}
					want := payload(size(from, s, i), byte(i))
					if !bytes.Equal(got, want) {
						t.Errorf("rank %d stream %d frame %d: payload mismatch", r, s, i)
					}
					bufpool.Put(want)
					if s == 1 {
						err = lend.Release(from, s)
					} else {
						bufpool.Put(got)
					}
					if err != nil {
						t.Errorf("rank %d stream %d release %d: %v", r, s, i, err)
						return
					}
					credit <- struct{}{}
				}
			}(r, s)
		}
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("ring exchange hung (lost wake-up?)\n%s", buf[:runtime.Stack(buf, true)])
	}
	send1, recv1 := parks()
	t.Logf("parks: %d full-ring, %d empty-ring", send1-send0, recv1-recv0)
	lent, reserved := borrows()
	lent, reserved = lent-lent0, reserved-reserved0
	t.Logf("borrow path: %d frames lent in place, %d reserved", lent, reserved)
	if lent == 0 || reserved == 0 {
		t.Errorf("stream 1 did not take the borrow path: %d lent, %d reserved", lent, reserved)
	}
	if send1 == send0 || recv1 == recv0 {
		t.Errorf("want both waits to park: %d full-ring, %d empty-ring parks", send1-send0, recv1-recv0)
	}
}

// stressSend sends p, through a reservation when borrow is set and the ring
// has the room now.
func stressSend(ep transport.Endpoint, lend transport.Lender, borrow bool, to, stream int, p []byte) error {
	if borrow {
		slot, err := lend.Reserve(to, stream, len(p))
		if err != nil {
			return err
		}
		if slot != nil {
			copy(slot, p)
			bufpool.Put(p)
			return lend.Commit(to, stream, true)
		}
	}
	return ep.Send(to, stream, p)
}

// TestShmWakeWithoutBackstop re-runs the close, peer-close and deadline
// tests with the park timer out of reach: each must still finish at once,
// so none of those wakes waits on the backstop.
func TestShmWakeWithoutBackstop(t *testing.T) {
	withBackstop(t, 30*time.Second)
	for _, tc := range []struct {
		name string
		fn   func(*testing.T)
	}{
		{"CloseUnblocksRecv", testCloseUnblocksRecv},
		{"PeerCloseFailsRecv", testPeerCloseFailsRecv},
		{"OpTimeout", testOpTimeout},
	} {
		t.Run(tc.name, func(t *testing.T) {
			start := time.Now()
			tc.fn(t)
			if d := time.Since(start); d > time.Second {
				t.Fatalf("took %v, want < 1s", d)
			}
		})
	}
}

// TestShmWakeCloseSignalsBlockedSend: a sender parked on a full ring is
// woken by the receiver's rank closing, not by the timer.
func TestShmWakeCloseSignalsBlockedSend(t *testing.T) {
	withBackstop(t, 30*time.Second)
	net, err := New(2, 1, WithRingBytes(minRingBytes))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	a, b := mustEndpoint(t, net, 0), mustEndpoint(t, net, 1)
	errCh := make(chan error, 1)
	go func() { errCh <- a.Send(1, 0, payload(4*minRingBytes, 1)) }()
	space := a.(*Endpoint).prod[1].space
	for space.waiting.Load() == 0 {
		runtime.Gosched()
	}
	start := time.Now()
	_ = b.Close()
	select {
	case err := <-errCh:
		var pf *transport.PeerFailedError
		if !errors.As(err, &pf) || pf.Rank != 1 {
			t.Fatalf("got %v, want PeerFailedError{Rank: 1}", err)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("send woke after %v", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked Send not woken by peer close")
	}
}
