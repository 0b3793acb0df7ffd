// Package sendpool provides pooled, persistent sender goroutines for the
// send-side of ring-step overlap.
//
// A ring collective must issue its send concurrently with a blocking receive
// (the standard deadlock-free formulation). Spawning a goroutine per send —
// the obvious formulation — costs a goroutine start, a channel allocation and
// a closure allocation per ring step, which at 64 ranks is 126 goroutines per
// tensor. Instead, an operation borrows one Pipe for its whole lifetime: a
// parked goroutine fed requests by value through a channel.
//
// Pipes belong to a Pool, and a Pool belongs to the communicator that made
// it (mpi.NewWorld): Get and Put recycle pipes through the pool's free list,
// so the steady state allocates nothing, and Close retires them, so no sender
// goroutine outlives its communicator.
package sendpool

import "sync"

// Sender is the point-to-point send half used by collectives; *mpi.Comm and
// transport.Endpoint both satisfy it.
type Sender interface {
	Send(to, stream int, data []byte) error
}

type request struct {
	s          Sender
	to, stream int
	data       []byte
}

// run is the parked sender loop. It deliberately captures only the channels,
// not the Pipe, so a retired Pipe is collectable.
func run(req chan request, err chan error) {
	for r := range req {
		err <- r.s.Send(r.to, r.stream, r.data)
	}
}

// PipeDepth is the number of sends a Pipe accepts before Send blocks: one
// executing on the transport plus one queued behind it.
const PipeDepth = 2

// Pipe is a persistent sender goroutine that accepts up to PipeDepth sends
// before the caller must Wait. All sends run on one goroutine, so frames are
// put on the wire in Send order and the transport's per-(peer, stream) FIFO
// matching is preserved even with several frames in flight per ring step
// (two senders racing on the same stream would interleave). A Pipe must be
// used by one operation at a time; the caller tracks how many sends are
// outstanding (Sends minus Waits) and keeps it within PipeDepth. An
// operation that needs only one send in flight, such as a barrier round,
// simply never issues a second before its Wait.
type Pipe struct {
	req chan request
	err chan error
}

// Send asynchronously delivers data to rank `to` on the given stream of s.
// Ownership of data transfers to the transport immediately. Blocks only when
// PipeDepth sends are already outstanding.
func (p *Pipe) Send(s Sender, to, stream int, data []byte) {
	p.req <- request{s: s, to: to, stream: stream, data: data}
}

// Wait blocks until the oldest outstanding send completes and returns its
// error. Results arrive in Send order.
func (p *Pipe) Wait() error { return <-p.err }

// Pool is a free list of idle pipes. Its size is the peak number of
// operations that ran at once on its communicators; it has no cap. The zero
// value is ready to use. A Pool is safe for concurrent use.
type Pool struct {
	mu     sync.Mutex
	idle   []*Pipe
	closed bool
}

// Get returns a ready pipelined sender, reusing an idle one when available.
// It works after Close too: the pipe is then retired by its Put.
func (pl *Pool) Get() *Pipe {
	pl.mu.Lock()
	if n := len(pl.idle); n > 0 {
		p := pl.idle[n-1]
		pl.idle[n-1] = nil
		pl.idle = pl.idle[:n-1]
		pl.mu.Unlock()
		return p
	}
	pl.mu.Unlock()
	// req buffers PipeDepth-1 queued requests behind the executing send; err
	// buffers every completion so the sender loop never blocks reporting.
	p := &Pipe{req: make(chan request, PipeDepth-1), err: make(chan error, PipeDepth)}
	go run(p.req, p.err)
	return p
}

// Put returns a pipe with `outstanding` sends not yet Waited on. With none
// it is pooled at once (or retired if the pool is closed). With some — the
// error path of an operation that failed between Send and Wait — a goroutine
// waits them out first; it ends when the transport resolves those sends,
// which a closed or failed transport does promptly.
func (pl *Pool) Put(p *Pipe, outstanding int) {
	if outstanding > 0 {
		go func() {
			for i := 0; i < outstanding; i++ {
				<-p.err
			}
			pl.Put(p, 0)
		}()
		return
	}
	pl.mu.Lock()
	if !pl.closed {
		pl.idle = append(pl.idle, p)
		pl.mu.Unlock()
		return
	}
	pl.mu.Unlock()
	close(p.req)
}

// Close retires every idle pipe. Pipes still borrowed, or still draining,
// are retired by their Put. Close does not wait for drains, so it cannot
// hang on a send the transport has not resolved.
func (pl *Pool) Close() {
	pl.mu.Lock()
	idle := pl.idle
	pl.idle, pl.closed = nil, true
	pl.mu.Unlock()
	for _, p := range idle {
		close(p.req)
	}
}
