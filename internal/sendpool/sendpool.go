// Package sendpool provides pooled, persistent sender goroutines for the
// send-side of ring-step overlap.
//
// A ring collective must issue its send concurrently with a blocking receive
// (the standard deadlock-free formulation). Spawning a goroutine per send —
// the obvious formulation — costs a goroutine start, a channel allocation and
// a closure allocation per ring step, which at 64 ranks is 126 goroutines per
// tensor. Instead, an operation acquires one Pipe for its whole lifetime: a
// parked goroutine fed requests by value through a channel.
// AcquirePipe/ReleasePipe recycle pipes through a bounded free list, so the
// steady state allocates nothing and never leaks goroutines (pipes beyond the
// free-list cap are retired by closing their feed channel).
package sendpool

import (
	"sync"
	"sync/atomic"
)

// abandoned counts pipes handed to AbandonPipe whose background drain has
// not completed yet. Failure tests poll PendingAbandoned() to quiesce before
// asserting goroutine and buffer-pool balance: an abandoned pipe still holds
// its in-flight payloads until the transport releases them.
var abandoned atomic.Int64

// PendingAbandoned returns how many abandoned pipes are still draining.
func PendingAbandoned() int64 { return abandoned.Load() }

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

// maxIdle bounds the free list. It only needs to cover the peak number of
// concurrent collective operations in the process (streams × communicators);
// excess pipes are retired rather than parked forever.
const maxIdle = 256

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

var (
	pipeMu   sync.Mutex
	pipeIdle []*Pipe
)

// AcquirePipe returns a ready pipelined sender, reusing a parked one when
// available.
func AcquirePipe() *Pipe {
	pipeMu.Lock()
	if n := len(pipeIdle); n > 0 {
		p := pipeIdle[n-1]
		pipeIdle[n-1] = nil
		pipeIdle = pipeIdle[:n-1]
		pipeMu.Unlock()
		return p
	}
	pipeMu.Unlock()
	// req buffers PipeDepth-1 queued requests behind the executing send; err
	// buffers every completion so the sender loop never blocks reporting.
	p := &Pipe{req: make(chan request, PipeDepth-1), err: make(chan error, PipeDepth)}
	go run(p.req, p.err)
	return p
}

// AbandonPipe returns a pipe with `outstanding` sends still in flight — the
// error path of an operation that failed between Send and Wait. The pipe is
// drained in the background and pooled once the transport releases it.
func AbandonPipe(p *Pipe, outstanding int) {
	if outstanding <= 0 {
		ReleasePipe(p)
		return
	}
	abandoned.Add(1)
	go func() {
		for i := 0; i < outstanding; i++ {
			<-p.err
		}
		ReleasePipe(p)
		abandoned.Add(-1)
	}()
}

// ReleasePipe returns a pipe to the pool. The caller must have Waited on
// every Send it issued.
func ReleasePipe(p *Pipe) {
	pipeMu.Lock()
	if len(pipeIdle) < maxIdle {
		pipeIdle = append(pipeIdle, p)
		pipeMu.Unlock()
		return
	}
	pipeMu.Unlock()
	close(p.req)
}
