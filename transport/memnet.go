package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"aiacc/internal/bufpool"
	"aiacc/netmodel"
)

// memNetwork is an in-process Network backed by Go channels. One channel
// exists per directed (from, to, stream) triple, so streams between the same
// pair of ranks never block each other — the property AIACC's multi-streamed
// communication depends on.
type memNetwork struct {
	size      int
	streams   int
	link      *netmodel.Link
	opTimeout time.Duration
	sending   []atomic.Int64 // per-sender in-flight modelled sends (one NIC each)

	// chans[from*size+to][stream] carries messages from -> to.
	chans [][]chan []byte

	// poison[from*size+to][stream] is closed when `from` aborts the lane; the
	// origin of the failure is stored in poisonOrigin before the close (the
	// channel-close edge orders the write for readers).
	poison       [][]chan struct{}
	poisonOrigin [][]int
	poisonOnce   []sync.Once

	// down[r] is closed when rank r's endpoint closes, so peers blocked on a
	// Recv from r (or a Send to r) learn the rank is gone instead of waiting
	// for a deadline — the in-process analogue of the TCP connection-error
	// fan-out.
	down []chan struct{}

	// drained flips once Close has recycled undelivered payloads; late sends
	// racing the drain (e.g. from abandoned pooled senders) compensate by
	// re-draining their lane, so teardown leaves the pool balanced either way.
	drained atomic.Bool

	mu        sync.Mutex
	closed    bool
	endpoints []*memEndpoint
}

var _ Network = (*memNetwork)(nil)

// MemOption configures a NewMem network.
type MemOption func(*memConfig)

type memConfig struct {
	buffer    int
	link      *netmodel.Link
	opTimeout time.Duration
}

// WithBuffer sets the per-(pair,stream) channel buffer. The default of 1
// keeps senders and receivers loosely coupled without hiding backpressure;
// larger values model deeper NIC queues and are used by throughput-oriented
// benchmarks.
func WithBuffer(n int) MemOption {
	return func(c *memConfig) {
		if n >= 0 {
			c.buffer = n
		}
	}
}

// WithMemOpTimeout bounds every blocking Send and Recv on the network's
// endpoints: an operation that cannot complete within d fails with a wrapped
// ErrTimeout instead of blocking forever behind a dead or wedged peer. The
// default of 0 keeps the historical unbounded behaviour. (The TCP transport's
// equivalent is WithOpTimeout.)
func WithMemOpTimeout(d time.Duration) MemOption {
	return func(c *memConfig) {
		if d > 0 {
			c.opTimeout = d
		}
	}
}

// WithModeledLink throttles every send to the link's modelled bandwidth
// (plus its base latency), reproducing the paper's §III observation in live
// wall-clock time: one stream is capped at the single-stream efficiency of
// the link, and n concurrent sends from one rank share the aggregate rate
// netmodel gives n streams, BytesPerSecond(n)/n each. Senders block for the
// modelled serialization delay.
func WithModeledLink(link netmodel.Link) MemOption {
	return func(c *memConfig) {
		l := link
		c.link = &l
	}
}

// NewMem creates an in-process network of `size` ranks with `streams`
// independent streams between every pair.
func NewMem(size, streams int, opts ...MemOption) (Network, error) {
	if size <= 0 {
		return nil, fmt.Errorf("%w: size %d", ErrBadRank, size)
	}
	if streams <= 0 {
		return nil, fmt.Errorf("%w: streams %d", ErrBadStream, streams)
	}
	cfg := memConfig{buffer: 1}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.link != nil {
		if err := cfg.link.Validate(); err != nil {
			return nil, err
		}
	}
	n := &memNetwork{size: size, streams: streams, link: cfg.link, opTimeout: cfg.opTimeout}
	if cfg.link != nil {
		n.sending = make([]atomic.Int64, size)
	}
	n.chans = make([][]chan []byte, size*size)
	n.poison = make([][]chan struct{}, size*size)
	n.poisonOrigin = make([][]int, size*size)
	n.poisonOnce = make([]sync.Once, size*size*streams)
	for i := range n.chans {
		cs := make([]chan []byte, streams)
		ps := make([]chan struct{}, streams)
		for s := range cs {
			cs[s] = make(chan []byte, cfg.buffer)
			ps[s] = make(chan struct{})
		}
		n.chans[i] = cs
		n.poison[i] = ps
		n.poisonOrigin[i] = make([]int, streams)
	}
	n.down = make([]chan struct{}, size)
	n.endpoints = make([]*memEndpoint, size)
	for r := 0; r < size; r++ {
		n.down[r] = make(chan struct{})
		n.endpoints[r] = &memEndpoint{net: n, rank: r, closed: make(chan struct{})}
	}
	return n, nil
}

func (n *memNetwork) Size() int    { return n.size }
func (n *memNetwork) Streams() int { return n.streams }

func (n *memNetwork) Endpoint(r int) (Endpoint, error) {
	if err := checkRank(r, n.size); err != nil {
		return nil, err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	return n.endpoints[r], nil
}

func (n *memNetwork) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.mu.Unlock()
	for _, ep := range n.endpoints {
		ep.close()
	}
	// Recycle undelivered payloads so teardown leaves the shared wire pool
	// balanced (transport owns every accepted-but-undelivered buffer). The
	// flag is set first: a send that enqueues concurrently with this sweep
	// observes it and compensates (see compensateDrain).
	n.drained.Store(true)
	for _, lanes := range n.chans {
		for _, ch := range lanes {
			for {
				select {
				case b := <-ch:
					bufpool.Put(b)
				default:
					goto nextLane
				}
			}
		nextLane:
		}
	}
	return nil
}

// memEndpoint is one rank's handle on a memNetwork.
type memEndpoint struct {
	net  *memNetwork
	rank int

	closeOnce sync.Once
	closed    chan struct{}
}

var _ Endpoint = (*memEndpoint)(nil)
var _ Aborter = (*memEndpoint)(nil)

func (e *memEndpoint) Rank() int    { return e.rank }
func (e *memEndpoint) Size() int    { return e.net.size }
func (e *memEndpoint) Streams() int { return e.net.streams }

// opTimer returns a deadline timer when the network has an op timeout, else
// nil (an unarmed select case). The caller stops the returned timer.
func (e *memEndpoint) opTimer() (*time.Timer, <-chan time.Time) {
	if e.net.opTimeout <= 0 {
		return nil, nil
	}
	t := time.NewTimer(e.net.opTimeout)
	return t, t.C
}

func (e *memEndpoint) Send(to, stream int, data []byte) error {
	if err := checkRank(to, e.net.size); err != nil {
		return err
	}
	if err := checkStream(stream, e.net.streams); err != nil {
		return err
	}
	if l := e.net.link; l != nil && to != e.rank {
		// Model the stream's serialization delay: with `active` of this
		// sender's streams on the wire when it starts, the payload drains at
		// an equal share of the link's aggregate rate for that many streams,
		// the §III diminishing-returns curve the simulator uses
		// (netmodel.Link.Utilization). Independent streams sleep
		// concurrently, so live aggregate bandwidth grows with stream count
		// along that curve.
		active := e.net.sending[e.rank].Add(1)
		delay := l.BaseLatency
		if bps := l.BytesPerSecond(int(active)); bps > 0 {
			delay += time.Duration(float64(len(data)) * float64(active) / bps * float64(time.Second))
		}
		select {
		case <-e.closed:
			e.net.sending[e.rank].Add(-1)
			bufpool.Put(data)
			return ErrClosed
		case <-time.After(delay):
		}
		e.net.sending[e.rank].Add(-1)
	}
	ch := e.net.chans[e.rank*e.net.size+to][stream]
	// Fast path: the lane has room.
	select {
	case <-e.closed:
		bufpool.Put(data)
		return ErrClosed
	case ch <- data:
		e.compensateDrain(ch)
		return nil
	default:
	}
	timer, deadline := e.opTimer()
	if timer != nil {
		defer timer.Stop()
	}
	// The transport owns `data` from here on: any error exit recycles it so
	// failed operations leave the shared pool balanced.
	select {
	case <-e.closed:
		bufpool.Put(data)
		return ErrClosed
	case <-e.net.down[to]:
		bufpool.Put(data)
		return &PeerFailedError{Rank: to, Cause: ErrClosed}
	case <-deadline:
		bufpool.Put(data)
		return fmt.Errorf("send %d->%d stream %d: %w", e.rank, to, stream, ErrTimeout)
	case ch <- data:
		e.compensateDrain(ch)
		return nil
	}
}

// compensateDrain runs after a successful enqueue: if the network's Close has
// already drained the lanes, this frame would be stranded in the channel
// forever, so take one frame back out and recycle it (FIFO multi-producer:
// recycling *any* resident frame keeps the pool balanced).
func (e *memEndpoint) compensateDrain(ch chan []byte) {
	if !e.net.drained.Load() {
		return
	}
	select {
	case b := <-ch:
		bufpool.Put(b)
	default:
	}
}

func (e *memEndpoint) Recv(from, stream int) ([]byte, error) {
	if err := checkRank(from, e.net.size); err != nil {
		return nil, err
	}
	if err := checkStream(stream, e.net.streams); err != nil {
		return nil, err
	}
	laneIdx := from*e.net.size + e.rank
	ch := e.net.chans[laneIdx][stream]
	// Fast path: data is already queued — deliver it even if the lane has
	// since been poisoned or the peer closed (frames sent before a failure
	// stay valid).
	select {
	case data := <-ch:
		return data, nil
	default:
	}
	timer, deadline := e.opTimer()
	if timer != nil {
		defer timer.Stop()
	}
	poison := e.net.poison[laneIdx][stream]
	for {
		select {
		case <-e.closed:
			return nil, ErrClosed
		case data := <-ch:
			return data, nil
		case <-poison:
			// Drain a frame that raced with the poison before failing.
			select {
			case data := <-ch:
				return data, nil
			default:
			}
			origin := e.net.poisonOrigin[laneIdx][stream]
			return nil, fmt.Errorf("recv %d<-%d stream %d: %w", e.rank, from, stream,
				&PeerFailedError{Rank: origin, Cause: ErrAborted})
		case <-e.net.down[from]:
			select {
			case data := <-ch:
				return data, nil
			default:
			}
			select {
			case <-e.closed:
				return nil, ErrClosed
			default:
			}
			return nil, fmt.Errorf("recv %d<-%d stream %d: %w", e.rank, from, stream,
				&PeerFailedError{Rank: from, Cause: ErrClosed})
		case <-deadline:
			return nil, fmt.Errorf("recv %d<-%d stream %d: %w", e.rank, from, stream, ErrTimeout)
		}
	}
}

// Abort implements Aborter: it poisons the (to, stream) lane so the peer's
// pending and future Recvs from this rank fail with a *PeerFailedError naming
// origin. Frames already queued on the lane are still delivered first.
func (e *memEndpoint) Abort(to, stream, origin int) error {
	if err := checkRank(to, e.net.size); err != nil {
		return err
	}
	if err := checkStream(stream, e.net.streams); err != nil {
		return err
	}
	laneIdx := e.rank*e.net.size + to
	e.net.poisonOnce[laneIdx*e.net.streams+stream].Do(func() {
		e.net.poisonOrigin[laneIdx][stream] = origin
		close(e.net.poison[laneIdx][stream])
	})
	return nil
}

func (e *memEndpoint) Close() error {
	e.close()
	return nil
}

func (e *memEndpoint) close() {
	e.closeOnce.Do(func() {
		close(e.closed)
		close(e.net.down[e.rank])
	})
}
