package sendpool

import (
	"errors"
	"sync"
	"testing"
)

type fakeSender struct {
	mu    sync.Mutex
	sends []string
	err   error
}

func (f *fakeSender) Send(to, stream int, data []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.sends = append(f.sends, string(data))
	return f.err
}

func TestSendWaitDeliversInOrder(t *testing.T) {
	f := &fakeSender{}
	a := AcquirePipe()
	defer ReleasePipe(a)
	for _, msg := range []string{"one", "two", "three"} {
		a.Send(f, 1, 0, []byte(msg))
		if err := a.Wait(); err != nil {
			t.Fatalf("Wait: %v", err)
		}
	}
	if len(f.sends) != 3 || f.sends[0] != "one" || f.sends[2] != "three" {
		t.Fatalf("sends = %v", f.sends)
	}
}

func TestWaitReturnsSendError(t *testing.T) {
	want := errors.New("boom")
	f := &fakeSender{err: want}
	a := AcquirePipe()
	defer ReleasePipe(a)
	a.Send(f, 0, 0, nil)
	if err := a.Wait(); !errors.Is(err, want) {
		t.Fatalf("Wait = %v, want %v", err, want)
	}
}

func TestAcquireReusesReleased(t *testing.T) {
	a := AcquirePipe()
	ReleasePipe(a)
	b := AcquirePipe()
	defer ReleasePipe(b)
	if a != b {
		t.Error("AcquirePipe should reuse the released pipe")
	}
	// The recycled sender must still work.
	f := &fakeSender{}
	b.Send(f, 2, 1, []byte("again"))
	if err := b.Wait(); err != nil {
		t.Fatalf("Wait after reuse: %v", err)
	}
	if len(f.sends) != 1 {
		t.Fatalf("sends = %v", f.sends)
	}
}

// slowSender blocks each Send until released, recording delivery order.
type slowSender struct {
	fakeSender
	gate chan struct{}
}

func (s *slowSender) Send(to, stream int, data []byte) error {
	<-s.gate
	return s.fakeSender.Send(to, stream, data)
}

func TestPipeFIFOWithTwoInFlight(t *testing.T) {
	f := &fakeSender{}
	p := AcquirePipe()
	defer ReleasePipe(p)
	// Issue PipeDepth sends back to back, then wait for both: completions
	// must arrive in send order and the wire order must match.
	p.Send(f, 1, 0, []byte("a"))
	p.Send(f, 1, 0, []byte("b"))
	for i := 0; i < PipeDepth; i++ {
		if err := p.Wait(); err != nil {
			t.Fatalf("Wait %d: %v", i, err)
		}
	}
	p.Send(f, 1, 0, []byte("c"))
	if err := p.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if len(f.sends) != 3 || f.sends[0] != "a" || f.sends[1] != "b" || f.sends[2] != "c" {
		t.Fatalf("sends = %v, want FIFO a b c", f.sends)
	}
}

func TestPipeErrorsArriveInSendOrder(t *testing.T) {
	want := errors.New("boom")
	f := &fakeSender{err: want}
	p := AcquirePipe()
	defer ReleasePipe(p)
	p.Send(f, 0, 0, []byte("x"))
	p.Send(f, 0, 0, []byte("y"))
	for i := 0; i < 2; i++ {
		if err := p.Wait(); !errors.Is(err, want) {
			t.Fatalf("Wait %d = %v, want %v", i, err, want)
		}
	}
}

func TestAcquirePipeReusesReleased(t *testing.T) {
	p := AcquirePipe()
	ReleasePipe(p)
	q := AcquirePipe()
	defer ReleasePipe(q)
	if p != q {
		t.Error("AcquirePipe should reuse the released pipe")
	}
	f := &fakeSender{}
	q.Send(f, 0, 0, []byte("again"))
	if err := q.Wait(); err != nil {
		t.Fatalf("Wait after reuse: %v", err)
	}
}

func TestAbandonPipeDrainsOutstanding(t *testing.T) {
	s := &slowSender{gate: make(chan struct{})}
	p := AcquirePipe()
	p.Send(s, 0, 0, []byte("in-flight"))
	p.Send(s, 0, 0, []byte("queued"))
	// Abandon with both sends outstanding, then let them through; the pipe
	// must drain in the background and return to the pool reusable.
	AbandonPipe(p, 2)
	close(s.gate)
	// The abandoned pipe is pooled asynchronously; a fresh acquire must work
	// regardless of when that happens.
	q := AcquirePipe()
	defer ReleasePipe(q)
	f := &fakeSender{}
	q.Send(f, 0, 0, []byte("next-op"))
	if err := q.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
}

func TestConcurrentOperations(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f := &fakeSender{}
			a := AcquirePipe()
			defer ReleasePipe(a)
			for i := 0; i < 100; i++ {
				a.Send(f, 0, 0, []byte{byte(i)})
				if err := a.Wait(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
