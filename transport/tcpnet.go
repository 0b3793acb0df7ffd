package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"aiacc/internal/bufpool"
	"aiacc/metrics"
	"aiacc/trace"
)

// tcpNetwork is a Network whose ranks exchange messages over real TCP
// sockets. Every directed (from, to, stream) triple gets its own socket, so
// an AIACC stream maps one-to-one onto an OS-level TCP connection — exactly
// how multiple concurrent communication streams multiplex a physical link in
// the paper.
//
// Wire format: each message is a frame of a 4-byte big-endian length followed
// by the payload. When a connection is established the dialer first sends an
// 8-byte header identifying (from rank, stream id). Two header values above
// maxFrameBytes are reserved as control markers (heartbeat, abort) and carry
// small fixed-size payloads that never reach Recv.
//
// Data plane (DESIGN.md §6, "TCP framing and buffer recycling"):
//
//   - Sends are vectored: the length header and payload go out in a single
//     writev via net.Buffers, and when several goroutines send on the same
//     socket concurrently their frames are coalesced into one writev by a
//     combining writer (connWriter).
//   - Received payloads come from the process-wide size-classed buffer pool
//     (internal/bufpool), and payloads the transport has finished writing are
//     recycled into the same pool, so a steady-state ring all-reduce performs
//     ~0 allocations per op on the socket path.
//   - Reader goroutines prefetch: each (peer, stream) inbox buffers
//     inboxDepth decoded frames ahead of Recv, overlapping the socket read of
//     frame k+1 with the caller's reduction of frame k.
//
// Failure model (DESIGN.md §8): WithOpTimeout bounds every blocking Send and
// Recv; WithHeartbeat adds idle keep-alive frames plus a liveness read
// deadline so a silently-dead peer is detected; a lane's Recv reports the
// peer failed only once that lane's own reader has delivered every frame and
// ended, a failed reader or write marks the peer down for every Send to it,
// and collective aborts propagate as control frames that poison the
// receiving lane.
type tcpNetwork struct {
	size    int
	streams int

	mu        sync.Mutex
	closed    bool
	endpoints []*tcpEndpoint
}

var _ Network = (*tcpNetwork)(nil)

// ErrDuplicatePeer indicates two handshakes claimed the same (rank, stream)
// pair — accepting the second would spawn a second reader feeding the same
// inbox and corrupt FIFO order, so mesh establishment fails instead.
var ErrDuplicatePeer = errors.New("transport: duplicate (rank, stream) handshake")

// ErrFrameTooLarge indicates a frame exceeding maxFrameBytes. Send rejects
// such a payload up front, and a receiver that decodes such a length header
// reports the stream corrupt through Recv instead of trusting it with a
// buffer allocation.
var ErrFrameTooLarge = errors.New("transport: frame exceeds 1 GiB limit")

// maxFrameBytes bounds a frame header before the receive path trusts it with
// a buffer allocation: a larger length means a corrupt or hostile stream.
const maxFrameBytes = 1 << 30

// Control-frame markers. Both sit far above maxFrameBytes, so a data frame's
// length header can never collide with them; a header outside both markers
// and the size limit still fails the stream with ErrFrameTooLarge.
const (
	// heartbeatMarker frames carry an 8-byte big-endian send timestamp
	// (UnixNano) so the receiver can histogram one-way delay.
	heartbeatMarker = 0xFFFFFFFF
	// abortMarker frames carry a 4-byte big-endian origin rank: the rank whose
	// failure started the collective unwind. The receiving lane is poisoned.
	abortMarker = 0xFFFFFFFE
)

// Data-plane constants. Depth 4 lets a reader stay a few frames ahead of the
// collective's reduce/copy work without hiding backpressure entirely. One
// bufio fill of readBufSize absorbs many small frames (bit-vector agreement
// messages are tens of bytes); large payloads bypass the buffer after at most
// one readBufSize copy.
const (
	inboxDepth  = 4
	readBufSize = 32 << 10
)

// TCPOption configures the failure model and tracing of NewTCP (and, via
// WithTCPOptions, of NewTCPWorker).
type TCPOption func(*tcpConfig)

// tcpConfig's zero value is the default: unbounded operations, no heartbeat,
// no trace.
type tcpConfig struct {
	opTimeout time.Duration
	heartbeat time.Duration
	trace     *trace.Recorder
}

// WithOpTimeout bounds every blocking Send and Recv on the mesh: a Recv with
// no frame and a Send whose socket cannot drain within d fail with a wrapped
// ErrTimeout instead of blocking forever behind a dead or wedged peer. The
// default of 0 keeps the historical unbounded behaviour. (The in-process
// transport's equivalent is WithMemOpTimeout.)
func WithOpTimeout(d time.Duration) TCPOption {
	return func(c *tcpConfig) {
		if d > 0 {
			c.opTimeout = d
		}
	}
}

// WithHeartbeat enables liveness on the mesh: every interval, each outgoing
// socket that has been idle for at least that long carries a small heartbeat
// frame, and the read side arms a deadline of 4x the interval — a peer that
// produces neither data nor heartbeats for a full window is declared failed
// with ErrLiveness. Heartbeats must be enabled symmetrically on every rank of
// the mesh (they are when the option is passed to NewTCP; worker deployments
// must pass the same options to every NewTCPWorker). Busy links never carry
// heartbeats, so the happy-path cost is zero. Default off.
func WithHeartbeat(interval time.Duration) TCPOption {
	return func(c *tcpConfig) {
		if interval > 0 {
			c.heartbeat = interval
		}
	}
}

// livenessWindow is how long a reader waits for any frame (data or
// heartbeat) before declaring the peer dead, as a multiple of the heartbeat
// interval: tolerant of a few lost ticks under scheduler jitter.
func (c *tcpConfig) livenessWindow() time.Duration {
	if c.heartbeat <= 0 {
		return 0
	}
	return 4 * c.heartbeat
}

// writeTimeout bounds one writev flush: the explicit op timeout when set,
// else the liveness window when heartbeats are on (a socket that cannot
// drain for a full window is as dead as a silent one).
func (c *tcpConfig) writeTimeout() time.Duration {
	if c.opTimeout > 0 {
		return c.opTimeout
	}
	return c.livenessWindow()
}

// NewTCP creates a fully-connected TCP mesh of `size` ranks on the loopback
// interface with `streams` sockets per directed pair. It binds one listener
// per rank, then establishes every rank concurrently exactly as a
// NewTCPWorker process does, and blocks until the mesh is complete (or
// meshTimeout passes).
func NewTCP(size, streams int, opts ...TCPOption) (Network, error) {
	if size <= 0 {
		return nil, fmt.Errorf("%w: size %d", ErrBadRank, size)
	}
	if streams <= 0 {
		return nil, fmt.Errorf("%w: streams %d", ErrBadStream, streams)
	}
	var cfg tcpConfig
	for _, o := range opts {
		o(&cfg)
	}

	listeners := make([]net.Listener, size)
	addrs := make([]string, size)
	for r := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range listeners[:r] {
				_ = l.Close()
			}
			return nil, fmt.Errorf("listen rank %d: %w", r, err)
		}
		listeners[r] = l
		addrs[r] = l.Addr().String()
	}

	n := &tcpNetwork{size: size, streams: streams, endpoints: make([]*tcpEndpoint, size)}
	errs := make([]error, size)
	var wg sync.WaitGroup
	for r, l := range listeners {
		n.endpoints[r] = newTCPEndpoint(r, size, streams, cfg)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := n.endpoints[r].establish(l, addrs, meshTimeout); err != nil {
				errs[r] = fmt.Errorf("rank %d: %w", r, err)
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		_ = n.Close()
		return nil, err
	}
	return n, nil
}

func (n *tcpNetwork) Size() int    { return n.size }
func (n *tcpNetwork) Streams() int { return n.streams }

func (n *tcpNetwork) Endpoint(r int) (Endpoint, error) {
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

func (n *tcpNetwork) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.mu.Unlock()
	for _, ep := range n.endpoints {
		_ = ep.Close()
	}
	return nil
}

// outFrame is one queued frame: a data payload (ctrl == 0, header is the
// payload length) or a control frame (ctrl is the marker header and data the
// marker's fixed-size body, which is caller-owned scratch, not pool memory).
type outFrame struct {
	data []byte
	ctrl uint32
}

// connWriter owns one outgoing socket. It frames messages with a vectored
// write (header + payload in a single writev) and acts as a combining lock:
// when several goroutines send on the same socket concurrently, whoever holds
// the socket flushes every queued frame in one writev while the others wait —
// the userspace analogue of Nagle's coalescing, without its latency, which
// collapses bursts of small frames (e.g. bit-vector agreement messages) into
// one syscall per flush.
//
// After a frame is written the payload's ownership has fully left the
// process-visible world (the bytes are in the kernel), so the writer recycles
// it into the wire pool — that is what closes the zero-allocation loop with
// the pooled receive path. The pool's minimum size class protects
// deliberately shared tiny payloads (mpi.Barrier's token) from being reused.
// Control-frame bodies are never pooled and never recycled.
type connWriter struct {
	mu      sync.Mutex
	cond    sync.Cond
	conn    net.Conn
	busy    bool   // a flusher is writing outside the lock
	err     error  // sticky first failure: once a stream write fails, the FIFO is broken
	seq     uint64 // last enqueued frame
	done    uint64 // every frame <= done has been written (or failed)
	written uint64 // every frame <= written was written successfully

	queue []outFrame // frames awaiting the next flush
	spare []outFrame // ping-pong backing array for queue

	// Flush scratch, reused across batches.
	hdrs []byte
	vecs [][]byte
	bufs net.Buffers

	// Idle tracking for the heartbeat ticker (only written when trackIdle).
	trackIdle    bool
	lastEnq      atomic.Int64 // UnixNano of the last enqueued frame
	writeTimeout time.Duration

	// Observability (set once at endpoint construction, read-only after).
	met  *tcpMetrics
	rec  *trace.Recorder
	lane int
}

func newConnWriter() *connWriter {
	w := &connWriter{}
	w.cond.L = &w.mu
	return w
}

func (w *connWriter) attach(conn net.Conn) {
	w.mu.Lock()
	w.conn = conn
	if w.trackIdle {
		w.lastEnq.Store(time.Now().UnixNano())
	}
	w.mu.Unlock()
}

// close shuts the socket down, unblocking any in-flight flush; subsequent
// sends fail with ErrClosed.
func (w *connWriter) close() {
	w.mu.Lock()
	if w.conn != nil {
		_ = w.conn.Close()
	}
	if w.err == nil {
		w.err = ErrClosed
	}
	w.mu.Unlock()
}

// send enqueues one data frame and returns once it has been written to the
// socket (possibly by another goroutine's flush). Ownership of data transfers
// to the writer immediately.
func (w *connWriter) send(data []byte) error {
	return w.enqueue(outFrame{data: data})
}

// sendCtrl enqueues one control frame and blocks until it is on the wire.
// The body is borrowed from the caller for the duration of the call and not
// recycled.
func (w *connWriter) sendCtrl(ctrl uint32, body []byte) error {
	return w.enqueue(outFrame{data: body, ctrl: ctrl})
}

func (w *connWriter) enqueue(f outFrame) error {
	w.mu.Lock()
	if w.conn == nil {
		w.mu.Unlock()
		if f.ctrl == 0 {
			bufpool.Put(f.data)
		}
		return ErrClosed
	}
	if w.trackIdle {
		w.lastEnq.Store(time.Now().UnixNano())
	}
	w.seq++
	seq := w.seq
	w.queue = append(w.queue, f)
	w.met.queueDepth.Observe(int64(len(w.queue)))
	for {
		if w.done >= seq {
			// Report the sticky error only to frames that were not part of a
			// successful flush: a frame covered by an earlier successful batch
			// was delivered even if a later batch failed before we woke up.
			var err error
			if seq > w.written {
				err = w.err
			}
			w.mu.Unlock()
			return err
		}
		if !w.busy {
			w.flushLocked()
			continue
		}
		w.cond.Wait()
	}
}

// flushLocked takes every queued frame (the caller's own among them), writes
// the batch with a single vectored write outside the lock, recycles the
// payloads and wakes the waiters. Called with w.mu held; returns with it held.
func (w *connWriter) flushLocked() {
	w.busy = true
	batch := w.queue
	hi := w.seq
	w.queue = w.spare[:0]
	err := w.err
	conn := w.conn
	w.mu.Unlock()

	w.met.flushBatch.Observe(int64(len(batch)))
	var t0 time.Time
	if metrics.Enabled() {
		t0 = time.Now()
	}
	span := w.rec.Begin("tcp flush", "wire", w.lane)
	if err == nil {
		if w.writeTimeout > 0 {
			_ = conn.SetWriteDeadline(time.Now().Add(w.writeTimeout))
		}
		err = w.writeFrames(conn, batch)
	}
	if w.rec != nil {
		span.Arg("frames", strconv.Itoa(len(batch))).End()
	}
	if !t0.IsZero() {
		w.met.flushNs.ObserveSince(t0)
	}
	for _, f := range batch {
		if f.ctrl == 0 {
			bufpool.Put(f.data)
		}
	}
	clear(batch)

	w.mu.Lock()
	if err != nil && w.err == nil {
		w.err = err
	}
	w.done = hi
	if err == nil {
		w.written = hi
	}
	w.busy = false
	w.spare = batch[:0]
	w.cond.Broadcast()
}

// writeFrames emits the batch as one vectored write: for each frame a 4-byte
// big-endian header sliced out of a shared scratch (the payload length, or
// the control marker), then the body. net.Buffers.WriteTo on a *net.TCPConn
// turns this into writev(2) — one syscall for the whole batch instead of two
// writes per frame.
func (w *connWriter) writeFrames(conn net.Conn, batch []outFrame) error {
	if need := 4 * len(batch); cap(w.hdrs) < need {
		w.hdrs = make([]byte, 0, need)
	}
	hdrs := w.hdrs[:0]
	vecs := w.vecs[:0]
	for _, f := range batch {
		hdr := f.ctrl
		if hdr == 0 {
			hdr = uint32(len(f.data))
		}
		off := len(hdrs)
		hdrs = append(hdrs, 0, 0, 0, 0)
		binary.BigEndian.PutUint32(hdrs[off:], hdr)
		vecs = append(vecs, hdrs[off:off+4])
		if len(f.data) > 0 {
			vecs = append(vecs, f.data)
		}
	}
	w.bufs = net.Buffers(vecs)
	_, err := w.bufs.WriteTo(conn)
	clear(vecs) // drop payload references: the pool owns them next
	w.vecs = vecs[:0]
	w.hdrs = hdrs[:0]
	return err
}

// tcpEndpoint is one rank's handle on a tcpNetwork.
type tcpEndpoint struct {
	rank    int
	size    int
	streams int
	cfg     tcpConfig

	// out[to*streams+stream] is the combining writer over the socket this
	// rank sends on; writers exist from construction, sockets attach during
	// mesh establishment.
	out []*connWriter

	// inbox[from*streams+stream] receives decoded frames from the reader
	// goroutines, inboxDepth frames ahead of Recv. A reader that exits
	// records why in readerErr and closes its inbox, so a Recv that drains the
	// channel learns the stream is down instead of blocking forever; the
	// write-then-close ordering makes the slot safe to read after the channel
	// reports closed.
	inbox     []chan []byte
	readerErr []error
	// recvTimers[from*streams+stream] is the lane's reused Recv deadline.
	recvTimers []timerSlot

	// peerDown[r] is closed (with the cause stored in downErr[r] first) when
	// any reader from peer r dies while this endpoint is still open, or a
	// write to r fails: Send then reports *PeerFailedError on every lane to r.
	// Recv does not consult it. Peer-down is per peer but delivery is per
	// lane: a peer that wrote its last frames and closed may still have them
	// unread in one lane's socket after another lane saw EOF, so each Recv
	// waits for its own lane's reader, which delivers those frames and then
	// closes the inbox with the reason the lane ended.
	peerDown []chan struct{}
	downErr  []error
	downOnce []sync.Once

	readerWG  sync.WaitGroup
	bgWG      sync.WaitGroup // heartbeat ticker + abort senders
	closeOnce sync.Once
	drainOnce sync.Once
	closed    chan struct{}

	met *tcpMetrics
}

var _ Endpoint = (*tcpEndpoint)(nil)
var _ Aborter = (*tcpEndpoint)(nil)

func newTCPEndpoint(rank, size, streams int, cfg tcpConfig) *tcpEndpoint {
	ep := &tcpEndpoint{
		rank:       rank,
		size:       size,
		streams:    streams,
		cfg:        cfg,
		out:        make([]*connWriter, size*streams),
		inbox:      make([]chan []byte, size*streams),
		readerErr:  make([]error, size*streams),
		recvTimers: make([]timerSlot, size*streams),
		peerDown:   make([]chan struct{}, size),
		downErr:    make([]error, size),
		downOnce:   make([]sync.Once, size),
		closed:     make(chan struct{}),
		met:        newTCPMetrics(rank, size, streams),
	}
	for i := range ep.inbox {
		w := newConnWriter()
		w.met = ep.met
		w.rec = cfg.trace
		w.lane = traceLane(rank, i%streams)
		w.trackIdle = cfg.heartbeat > 0
		w.writeTimeout = cfg.writeTimeout()
		ep.out[i] = w
		ep.inbox[i] = make(chan []byte, inboxDepth)
	}
	for r := range ep.peerDown {
		ep.peerDown[r] = make(chan struct{})
	}
	return ep
}

func (e *tcpEndpoint) setOut(to, stream int, conn net.Conn) {
	e.out[to*e.streams+stream].attach(conn)
}

// markPeerDown records that peer `from` can no longer communicate with this
// endpoint and wakes every Recv blocked on it. Idempotent per peer.
func (e *tcpEndpoint) markPeerDown(from int, cause error) {
	e.downOnce[from].Do(func() {
		e.downErr[from] = cause
		close(e.peerDown[from])
		mPeerFailures.Inc()
	})
}

// startHeartbeat launches the idle keep-alive ticker when WithHeartbeat is
// configured. Called once mesh establishment succeeded (sockets attached).
func (e *tcpEndpoint) startHeartbeat() {
	hb := e.cfg.heartbeat
	if hb <= 0 {
		return
	}
	e.bgWG.Add(1)
	go func() {
		defer e.bgWG.Done()
		ticker := time.NewTicker(hb)
		defer ticker.Stop()
		var body [8]byte
		for {
			select {
			case <-e.closed:
				return
			case <-ticker.C:
			}
			cutoff := time.Now().Add(-hb).UnixNano()
			for to := 0; to < e.size; to++ {
				if to == e.rank {
					continue
				}
				for s := 0; s < e.streams; s++ {
					w := e.out[to*e.streams+s]
					if w.lastEnq.Load() > cutoff {
						continue // the link carried a frame recently: it is alive
					}
					binary.BigEndian.PutUint64(body[:], uint64(time.Now().UnixNano()))
					if w.sendCtrl(heartbeatMarker, body[:]) == nil {
						mHeartbeatsSent.Inc()
					}
				}
			}
		}
	}()
}

// Abort implements Aborter: it ships an abort control frame on the directed
// (to, stream) socket so the peer's reader poisons that lane with a
// *PeerFailedError naming `origin`. The send is asynchronous — the unwinding
// rank must not block behind a wedged socket — and bounded by the endpoint's
// lifetime (Close unblocks it).
func (e *tcpEndpoint) Abort(to, stream, origin int) error {
	if err := checkRank(to, e.size); err != nil {
		return err
	}
	if err := checkStream(stream, e.streams); err != nil {
		return err
	}
	if to == e.rank || origin < 0 {
		return nil
	}
	w := e.out[to*e.streams+stream]
	e.bgWG.Add(1)
	go func() {
		defer e.bgWG.Done()
		var body [4]byte
		binary.BigEndian.PutUint32(body[:], uint32(origin))
		if w.sendCtrl(abortMarker, body[:]) == nil {
			mAbortsSent.Inc()
		}
	}()
	return nil
}

// acceptAll accepts `expect` connections, reads each handshake header and
// spawns a reader goroutine per connection. A handshake that claims an
// already-connected (rank, stream) pair fails the mesh with ErrDuplicatePeer:
// a second reader on the same inbox would interleave frames and break the
// per-pair FIFO guarantee. Accepting and each handshake read give up at the
// deadline (zero means none) with an error wrapping os.ErrDeadlineExceeded,
// so a peer that never dials, or dials and never sends its header, cannot
// hold mesh establishment past it.
func (e *tcpEndpoint) acceptAll(l net.Listener, expect int, deadline time.Time) error {
	if dl, ok := l.(interface{ SetDeadline(time.Time) error }); ok {
		_ = dl.SetDeadline(deadline)
	}
	seen := make(map[int]bool, expect)
	for i := 0; i < expect; i++ {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		var hdr [8]byte
		_ = conn.SetReadDeadline(deadline)
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			_ = conn.Close()
			return fmt.Errorf("read handshake: %w", err)
		}
		_ = conn.SetReadDeadline(time.Time{})
		from := int(binary.BigEndian.Uint32(hdr[0:]))
		stream := int(binary.BigEndian.Uint32(hdr[4:]))
		if err := checkRank(from, e.size); err != nil {
			_ = conn.Close()
			return err
		}
		if err := checkStream(stream, e.streams); err != nil {
			_ = conn.Close()
			return err
		}
		idx := from*e.streams + stream
		if seen[idx] {
			_ = conn.Close()
			return fmt.Errorf("%w: rank %d stream %d", ErrDuplicatePeer, from, stream)
		}
		seen[idx] = true
		mHandshakes.Inc()
		e.readerWG.Add(1)
		go e.readLoop(conn, from, stream)
	}
	return nil
}

// readLoop decodes frames from one incoming socket into the matching inbox
// channel until the socket fails or the endpoint closes. Payload buffers come
// from the shared wire pool; ownership moves to the Recv caller with the
// inbox hand-off. The bufio layer batches small frames into one read syscall
// while payloads larger than its buffer are read directly into pooled memory.
// On exit the reason is recorded and the inbox closed, so Recv reports the
// dead stream once the buffered frames are drained; a death that is not local
// teardown and not a lane-scoped abort additionally marks the whole peer down.
func (e *tcpEndpoint) readLoop(conn net.Conn, from, stream int) {
	defer e.readerWG.Done()
	defer func() { _ = conn.Close() }()
	// Close the socket when the endpoint shuts down so the blocking read
	// below is released.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-e.closed:
			_ = conn.Close()
		case <-stop:
		}
	}()

	idx := from*e.streams + stream
	err := e.readFrames(conn, e.inbox[idx], idx, stream)
	e.readerErr[idx] = err
	if err != nil && !errors.Is(err, ErrClosed) {
		select {
		case <-e.closed:
			// Local teardown closed the socket under the reader: not a peer
			// failure.
		default:
			if !errors.Is(err, ErrAborted) {
				// An abort poisons only this lane; anything else (EOF, reset,
				// liveness) means the peer connection itself is gone.
				e.markPeerDown(from, err)
			}
		}
	}
	close(e.inbox[idx])
}

// readFrames is readLoop's decode loop; the error it returns says why the
// stream ended. Pooled payloads that never reach the inbox go back to the
// pool. Each decoded frame bumps the per-(peer, stream) receive counters and,
// when the transport is traced, records a "tcp recv" span covering the
// payload read. Control frames (heartbeats, aborts) are consumed here and
// never surface through Recv.
func (e *tcpEndpoint) readFrames(conn net.Conn, inbox chan []byte, idx, stream int) error {
	br := bufio.NewReaderSize(conn, readBufSize)
	rec := e.cfg.trace
	lane := traceLane(e.rank, stream)
	liveness := e.cfg.livenessWindow()
	var lenBuf [4]byte
	var ctrlBuf [8]byte
	for {
		if liveness > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(liveness))
		}
		if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				return fmt.Errorf("no frame for %v: %w", liveness, ErrLiveness)
			}
			return err // io.EOF or a closed socket: normal teardown
		}
		size := binary.BigEndian.Uint32(lenBuf[:])
		switch {
		case size == heartbeatMarker:
			if _, err := io.ReadFull(br, ctrlBuf[:8]); err != nil {
				return fmt.Errorf("read heartbeat: %w", err)
			}
			sent := int64(binary.BigEndian.Uint64(ctrlBuf[:8]))
			if delay := time.Now().UnixNano() - sent; delay > 0 {
				mHeartbeatDelayNs.Observe(delay)
			}
			mHeartbeatsRecv.Inc()
			continue
		case size == abortMarker:
			if _, err := io.ReadFull(br, ctrlBuf[:4]); err != nil {
				return fmt.Errorf("read abort: %w", err)
			}
			origin := int(binary.BigEndian.Uint32(ctrlBuf[:4]))
			mAbortsRecv.Inc()
			return &PeerFailedError{Rank: origin, Cause: ErrAborted}
		case size > maxFrameBytes:
			return fmt.Errorf("%w: length header claims %d bytes", ErrFrameTooLarge, size)
		}
		span := rec.Begin("tcp recv", "wire", lane)
		payload := bufpool.Get(int(size))
		if _, err := io.ReadFull(br, payload); err != nil {
			bufpool.Put(payload)
			if errors.Is(err, os.ErrDeadlineExceeded) {
				return fmt.Errorf("mid-frame stall beyond %v: %w", liveness, ErrLiveness)
			}
			return fmt.Errorf("read payload: %w", err)
		}
		if rec != nil {
			span.Arg("bytes", strconv.Itoa(int(size))).End()
		}
		e.met.rxBytes[idx].Add(int64(size))
		e.met.rxFrames[idx].Inc()
		select {
		case inbox <- payload:
		case <-e.closed:
			bufpool.Put(payload)
			return ErrClosed
		}
	}
}

func (e *tcpEndpoint) Rank() int    { return e.rank }
func (e *tcpEndpoint) Size() int    { return e.size }
func (e *tcpEndpoint) Streams() int { return e.streams }

func (e *tcpEndpoint) Send(to, stream int, data []byte) error {
	if err := checkRank(to, e.size); err != nil {
		return err
	}
	if err := checkStream(stream, e.streams); err != nil {
		return err
	}
	if to == e.rank {
		return fmt.Errorf("%w: self-send on rank %d", ErrBadRank, to)
	}
	if len(data) > maxFrameBytes {
		// The peer would drop the stream on this length header; fail the send
		// instead of turning it into a remote teardown.
		return fmt.Errorf("send %d->%d stream %d: %w: %d bytes", e.rank, to, stream, ErrFrameTooLarge, len(data))
	}
	select {
	case <-e.closed:
		// Past validation the payload belongs to the transport on every exit,
		// including this one (the mem and shm transports agree): recycle it.
		bufpool.Put(data)
		return ErrClosed
	default:
	}
	idx := to*e.streams + stream
	size := int64(len(data))
	var t0 time.Time
	if metrics.Enabled() {
		t0 = time.Now()
	}
	if err := e.out[idx].send(data); err != nil {
		if errors.Is(err, ErrClosed) {
			select {
			case <-e.closed:
				return ErrClosed
			default:
			}
			select {
			case <-e.peerDown[to]:
				return fmt.Errorf("send %d->%d stream %d: %w", e.rank, to, stream,
					&PeerFailedError{Rank: to, Cause: e.downErr[to]})
			default:
			}
			return ErrClosed
		}
		if errors.Is(err, os.ErrDeadlineExceeded) {
			return fmt.Errorf("send %d->%d stream %d: %w: %v", e.rank, to, stream, ErrTimeout, err)
		}
		// Any other write error means the socket to `to` is dead (reset,
		// broken pipe): classify it as that peer's failure and fan it out so
		// the endpoint's other lanes toward the peer fail fast too.
		e.markPeerDown(to, err)
		return fmt.Errorf("send %d->%d stream %d: %w", e.rank, to, stream,
			&PeerFailedError{Rank: to, Cause: err})
	}
	if !t0.IsZero() {
		e.met.sendNs.ObserveSince(t0)
	}
	e.met.txBytes[idx].Add(size)
	e.met.txFrames[idx].Inc()
	return nil
}

func (e *tcpEndpoint) Recv(from, stream int) ([]byte, error) {
	if err := checkRank(from, e.size); err != nil {
		return nil, err
	}
	if err := checkStream(stream, e.streams); err != nil {
		return nil, err
	}
	idx := from*e.streams + stream
	inbox := e.inbox[idx]
	e.met.inboxOcc.Observe(int64(len(inbox)))
	// Fast path: a prefetched frame is already decoded (or the stream already
	// ended) — no timers.
	select {
	case data, ok := <-inbox:
		return e.delivered(data, ok, from, stream, idx)
	default:
	}
	var t0 time.Time
	if metrics.Enabled() {
		t0 = time.Now()
	}
	var deadline <-chan time.Time
	if e.cfg.opTimeout > 0 {
		slot := &e.recvTimers[idx]
		timer := slot.arm(e.cfg.opTimeout)
		defer slot.disarm(timer)
		deadline = timer.C
	}
	select {
	case <-e.closed:
		return nil, ErrClosed
	case data, ok := <-inbox:
		if ok && !t0.IsZero() {
			e.met.recvWaitNs.ObserveSince(t0)
		}
		return e.delivered(data, ok, from, stream, idx)
	case <-deadline:
		return nil, fmt.Errorf("recv %d<-%d stream %d: %w", e.rank, from, stream, ErrTimeout)
	}
}

// delivered classifies one inbox receive: a frame, or — when the inbox is
// closed — the reason the stream ended, translated into the failure taxonomy.
func (e *tcpEndpoint) delivered(data []byte, ok bool, from, stream, idx int) ([]byte, error) {
	if ok {
		return data, nil
	}
	// The reader for this stream exited; readerErr is safely published by the
	// inbox close.
	err := e.readerErr[idx]
	if errors.Is(err, ErrFrameTooLarge) {
		// A protocol violation is worth naming — it means a peer sent garbage,
		// not that anyone called Close.
		return nil, fmt.Errorf("recv %d<-%d stream %d: %w", e.rank, from, stream, err)
	}
	select {
	case <-e.closed:
		return nil, ErrClosed
	default:
	}
	if err == nil || errors.Is(err, ErrClosed) {
		return nil, ErrClosed
	}
	if errors.Is(err, ErrPeerFailed) {
		// Lane poisoned by an abort frame: surface the recorded origin.
		return nil, fmt.Errorf("recv %d<-%d stream %d: %w", e.rank, from, stream, err)
	}
	return nil, fmt.Errorf("recv %d<-%d stream %d: %w", e.rank, from, stream,
		&PeerFailedError{Rank: from, Cause: err})
}

func (e *tcpEndpoint) Close() error {
	e.closeOnce.Do(func() {
		close(e.closed)
		for _, w := range e.out {
			w.close()
		}
	})
	e.readerWG.Wait()
	e.bgWG.Wait()
	// All readers have exited and closed their inboxes: recycle undelivered
	// frames so teardown leaves the shared wire pool balanced. (Self lanes
	// never had a reader and stay open-and-empty; the non-blocking drain
	// skips them.)
	e.drainOnce.Do(func() {
		for _, ch := range e.inbox {
			for {
				select {
				case b, ok := <-ch:
					if !ok {
						// Closed and empty.
					} else {
						bufpool.Put(b)
						continue
					}
				default:
				}
				break
			}
		}
	})
	return nil
}
