package sendpool

import (
	"errors"
	"sync"
	"testing"
	"time"

	"aiacc/internal/leakcheck"
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
	var pl Pool
	defer pl.Close()
	f := &fakeSender{}
	a := pl.Get()
	defer pl.Put(a, 0)
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
	var pl Pool
	defer pl.Close()
	want := errors.New("boom")
	f := &fakeSender{err: want}
	a := pl.Get()
	defer pl.Put(a, 0)
	a.Send(f, 0, 0, nil)
	if err := a.Wait(); !errors.Is(err, want) {
		t.Fatalf("Wait = %v, want %v", err, want)
	}
}

func TestGetReusesPut(t *testing.T) {
	var pl Pool
	defer pl.Close()
	a := pl.Get()
	pl.Put(a, 0)
	b := pl.Get()
	defer pl.Put(b, 0)
	if a != b {
		t.Error("Get should reuse the pipe that was Put")
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
	var pl Pool
	defer pl.Close()
	f := &fakeSender{}
	p := pl.Get()
	defer pl.Put(p, 0)
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
	var pl Pool
	defer pl.Close()
	want := errors.New("boom")
	f := &fakeSender{err: want}
	p := pl.Get()
	defer pl.Put(p, 0)
	p.Send(f, 0, 0, []byte("x"))
	p.Send(f, 0, 0, []byte("y"))
	for i := 0; i < 2; i++ {
		if err := p.Wait(); !errors.Is(err, want) {
			t.Fatalf("Wait %d = %v, want %v", i, err, want)
		}
	}
}

func TestPutDrainsOutstanding(t *testing.T) {
	var pl Pool
	defer pl.Close()
	s := &slowSender{gate: make(chan struct{})}
	p := pl.Get()
	p.Send(s, 0, 0, []byte("in-flight"))
	p.Send(s, 0, 0, []byte("queued"))
	// Put with both sends outstanding, then let them through; the pipe must
	// drain in the background and return to the pool reusable.
	pl.Put(p, 2)
	close(s.gate)
	// The pipe is pooled asynchronously; a fresh Get must work regardless of
	// when that happens.
	q := pl.Get()
	defer pl.Put(q, 0)
	f := &fakeSender{}
	q.Send(f, 0, 0, []byte("next-op"))
	if err := q.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
}

func TestConcurrentOperations(t *testing.T) {
	var pl Pool
	defer pl.Close()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f := &fakeSender{}
			a := pl.Get()
			defer pl.Put(a, 0)
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

// TestCloseRetiresEveryPipe pins ownership: after Close, the pool's idle
// pipes, a pipe Put later and a pipe still draining when Close ran all leave
// no goroutine behind, and Get still works.
func TestCloseRetiresEveryPipe(t *testing.T) {
	base := leakcheck.Take()
	var pl Pool
	idle := []*Pipe{pl.Get(), pl.Get(), pl.Get()}
	for _, p := range idle {
		pl.Put(p, 0)
	}
	borrowed := pl.Get()
	s := &slowSender{gate: make(chan struct{})}
	draining := pl.Get()
	draining.Send(s, 0, 0, []byte("in-flight"))
	pl.Put(draining, 1)

	pl.Close()
	pl.Put(borrowed, 0)
	late := pl.Get()
	f := &fakeSender{}
	late.Send(f, 0, 0, []byte("after close"))
	if err := late.Wait(); err != nil {
		t.Fatalf("Wait after Close: %v", err)
	}
	pl.Put(late, 0)
	close(s.gate)

	if err := base.Goroutines(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}
