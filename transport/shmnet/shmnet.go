// Package shmnet is the third transport.Network: lock-free SPSC ring buffers
// in file-backed shared memory, for ranks co-located on one host. Where the
// TCP mesh pays syscalls, socket buffers and kernel copies per frame, a shm
// lane is two memcpys through an mmap'd ring with cache-line-padded cursors —
// the "fast intra-node fabric" of the paper's two-tier testbed, standing in
// for NVLink the way tcpnet stands in for the inter-node network.
//
// One ring exists per directed (from, to, stream) triple, so streams between
// the same pair never block each other (the property the multi-streamed
// all-reduce relies on) and each ring has exactly one producer and one
// consumer. Frames use the TCP wire format — 4-byte big-endian length, then
// payload — streamed through the ring, so frames larger than the ring work.
//
// A waiter — a receiver on an empty ring, a sender on a full one — first
// yields a few rounds, since on a small host handing the core to the peer
// beats burning it on a spin loop. On an in-process network it then parks:
// it publishes a per-lane "waiting" word, re-checks the cursor it is waiting
// on, and blocks on a channel the peer signals after its next cursor store
// (a Dekker handshake: each side stores, then loads the other's word, and Go
// atomics are sequentially consistent, so one of them sees the other). A
// timer capped at 200 µs, or the op deadline if sooner, backstops the block,
// and Close signals every lane of the rank, so close, peer close and timeouts
// surface at once. Attach endpoints share only the mapped file with their
// peers, so they keep the older wait: 64 yields, then sleeps doubling from
// 2 µs to 200 µs.
//
// The buffer-ownership contract (transport.Endpoint) is satisfied by copy:
// Send copies the payload into the ring and recycles the slice into the
// shared wire pool (ownership moved to the transport); Recv carves a pooled
// buffer and copies the frame out (ownership moved to the caller). Both
// sides are alloc-free at steady state.
//
// Two construction modes mirror memnet/tcpnet:
//
//   - New: an in-process Network over an unlinked temp file — same-process
//     goroutine ranks (tests, benches, the live engine's intra-host tier).
//   - Attach: one endpoint of a multi-process network over a named file;
//     processes attach in any order and rendezvous through the file header.
package shmnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"aiacc/internal/bufpool"
	"aiacc/transport"
)

// ErrDuplicateRank indicates two attachers claimed the same rank slot of a
// shared region — the shm analogue of the TCP mesh's ErrDuplicatePeer.
var ErrDuplicateRank = errors.New("shmnet: rank already attached")

const (
	// maxFrameBytes mirrors tcpnet: length words above it are control
	// markers or corruption.
	maxFrameBytes = 1 << 30
	// abortMarker frames carry a 4-byte big-endian origin rank (same
	// encoding as tcpnet's abort control frame).
	abortMarker = 0xFFFFFFFE

	// DefaultRingBytes is the per-lane ring capacity. Large enough that a
	// 64 KiB segment streams through in a couple of producer/consumer
	// handoffs; small enough that an 8-rank × 4-stream network maps tens of
	// megabytes, not gigabytes.
	DefaultRingBytes = 256 << 10
	minRingBytes     = 4 << 10

	// spinYields bounds the Gosched phase of an Attach wait before it
	// escalates to sleeping. On a single vCPU the first yield usually
	// schedules the peer.
	spinYields = 64
	parkBase   = 2 * time.Microsecond
	parkMax    = 200 * time.Microsecond

	// wakeSpins bounds the Gosched phase of an in-process wait before it
	// parks on the lane's wake. A wake costs a channel handoff, so the spin
	// only has to cover the peer's next cursor store when it is already
	// running.
	wakeSpins = 8
)

// parkBackstop caps one block of an in-process park. No wake is ever lost
// (TestShmWakeModel), so the timer only bounds the damage of a bug; tests
// raise it to turn such a bug into a hang.
var parkBackstop = parkMax

// Option configures New or Attach.
type Option func(*config)

type config struct {
	ringBytes int
	opTimeout time.Duration
}

// WithRingBytes sets the per-lane ring capacity (rounded up to a power of
// two, minimum 4 KiB). Larger rings amortize producer/consumer handoffs for
// big frames at the cost of mapped memory: size²×streams rings exist.
func WithRingBytes(n int) Option {
	return func(c *config) {
		if n > 0 {
			c.ringBytes = n
		}
	}
}

// WithOpTimeout bounds every blocking Send and Recv: an operation that
// cannot complete within d fails with a wrapped transport.ErrTimeout
// instead of waiting forever behind a dead or wedged peer. The shm analogue
// of tcpnet's WithOpTimeout / memnet's WithMemOpTimeout.
func WithOpTimeout(d time.Duration) Option {
	return func(c *config) {
		if d > 0 {
			c.opTimeout = d
		}
	}
}

func buildConfig(opts []Option) (config, error) {
	cfg := config{ringBytes: DefaultRingBytes}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.ringBytes < minRingBytes {
		cfg.ringBytes = minRingBytes
	}
	cfg.ringBytes = 1 << bits.Len(uint(cfg.ringBytes-1)) // round up to power of two
	return cfg, nil
}

func checkGeometry(size, streams int) error {
	if size <= 0 {
		return fmt.Errorf("%w: size %d", transport.ErrBadRank, size)
	}
	if streams <= 0 {
		return fmt.Errorf("%w: streams %d", transport.ErrBadStream, streams)
	}
	return nil
}

// network is the in-process Network over one shared region.
type network struct {
	reg     *region
	size    int
	streams int
	wakes   []wake // two per lane (data, space), in region.laneOff order

	mu        sync.Mutex
	closed    bool
	endpoints []*Endpoint
}

var _ transport.Network = (*network)(nil)

// New creates an in-process shared-memory network of `size` ranks with
// `streams` independent lanes between every ordered pair. The backing file
// is unlinked immediately after mapping, so the region lives exactly as long
// as the mapping does.
func New(size, streams int, opts ...Option) (transport.Network, error) {
	if err := checkGeometry(size, streams); err != nil {
		return nil, err
	}
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	f, err := os.CreateTemp("", "aiacc-shm-*")
	if err != nil {
		return nil, fmt.Errorf("shmnet: %w", err)
	}
	reg, err := mapRegion(f, size, streams, cfg.ringBytes)
	name := f.Name()
	_ = f.Close()
	_ = os.Remove(name)
	if err != nil {
		return nil, err
	}
	n := &network{reg: reg, size: size, streams: streams, wakes: make([]wake, 2*size*size*streams)}
	for i := range n.wakes {
		n.wakes[i].ch = make(chan struct{}, 1)
	}
	n.endpoints = make([]*Endpoint, size)
	for r := 0; r < size; r++ {
		if !reg.rankState(r).CompareAndSwap(rankFree, rankAttached) {
			reg.unmap()
			return nil, fmt.Errorf("%w: rank %d", ErrDuplicateRank, r)
		}
		n.endpoints[r] = newEndpoint(reg, r, cfg, false, n.wakes)
	}
	return n, nil
}

func (n *network) Size() int    { return n.size }
func (n *network) Streams() int { return n.streams }

func (n *network) Endpoint(r int) (transport.Endpoint, error) {
	if r < 0 || r >= n.size {
		return nil, fmt.Errorf("%w: %d not in [0,%d)", transport.ErrBadRank, r, n.size)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, transport.ErrClosed
	}
	return n.endpoints[r], nil
}

func (n *network) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.mu.Unlock()
	for _, ep := range n.endpoints {
		ep.shutdown()
	}
	// The region is shared by every endpoint: unmap only once all in-flight
	// ops have observed the closed flag and drained (touching an unmapped
	// region is a fault, not an error). A stuck op forfeits the unmap —
	// leaking a mapping beats a SIGSEGV.
	ok := true
	for _, ep := range n.endpoints {
		ok = ep.drainOps(2*time.Second) && ok
	}
	if ok {
		n.reg.unmap()
	}
	return nil
}

// Attach joins (creating if necessary) the multi-process network backed by
// the named file and claims `rank` in it. Every process must pass the same
// geometry; attach order is arbitrary. The caller owns the returned endpoint
// and should remove the file after the run.
func Attach(path string, rank, size, streams int, opts ...Option) (transport.Endpoint, error) {
	if err := checkGeometry(size, streams); err != nil {
		return nil, err
	}
	if rank < 0 || rank >= size {
		return nil, fmt.Errorf("%w: %d not in [0,%d)", transport.ErrBadRank, rank, size)
	}
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o600)
	if err != nil {
		return nil, fmt.Errorf("shmnet: %w", err)
	}
	reg, err := mapRegion(f, size, streams, cfg.ringBytes)
	_ = f.Close()
	if err != nil {
		return nil, err
	}
	if !reg.rankState(rank).CompareAndSwap(rankFree, rankAttached) {
		reg.unmap()
		return nil, fmt.Errorf("%w: rank %d on %s", ErrDuplicateRank, rank, path)
	}
	return newEndpoint(reg, rank, cfg, true, nil), nil
}

// wake is one direction of an in-process lane's wake: the waiter stores
// waiting and blocks on ch; the peer, after its next cursor store, loads
// waiting and if it is set sends a token without blocking. A token left over
// from a wake the waiter no longer needed only costs one spurious re-check.
type wake struct {
	waiting atomic.Uint32
	ch      chan struct{} // capacity 1
	_       [48]byte      // waiting words of the two directions on separate lines
}

// signal wakes the waiter if one is published. Call after the cursor store.
func (w *wake) signal() {
	if w.waiting.Load() != 0 {
		w.kick()
	}
}

func (w *wake) kick() {
	select {
	case w.ch <- struct{}{}:
	default: // a token is already pending
	}
}

// lane is one process's handle on a directed ring. The producer side
// (Send/Abort) and consumer side (Recv) hold independent mutexes for the
// documented concurrent-use safety; the SPSC cursors themselves are
// lock-free across the process boundary.
type lane struct {
	mu  sync.Mutex // producer side
	rmu sync.Mutex // consumer side

	tail *atomic.Uint64 // producer cursor (bytes ever written)
	head *atomic.Uint64 // consumer cursor (bytes ever read)
	buf  []byte
	mask uint64

	aborted bool  // producer: abort marker already queued
	sendErr error // producer: sticky after a mid-frame failure wedged the stream
	recvErr error // consumer: sticky after an abort marker or framing violation

	// The lane's wakes, shared with the peer's handle; nil under Attach.
	data  *wake       // a reader on an empty ring waits here
	space *wake       // a writer on a full ring waits here
	timer *time.Timer // park backstop of this side, created at its first park
}

func newLane(reg *region, from, to, stream int, wakes []wake) *lane {
	off := reg.laneOff(from, to, stream)
	l := &lane{
		tail: reg.word(off + laneTailOff),
		head: reg.word(off + laneHeadOff),
		buf:  reg.mem[off+laneHdrBytes : off+laneHdrBytes+reg.ringBytes],
		mask: uint64(reg.ringBytes - 1),
	}
	if wakes != nil {
		i := 2 * ((from*reg.size+to)*reg.streams + stream)
		l.data, l.space = &wakes[i], &wakes[i+1]
	}
	return l
}

// Endpoint is one rank's handle on a shared-memory network. It implements
// transport.Endpoint and transport.Aborter.
type Endpoint struct {
	reg        *region
	rank       int
	size       int
	streams    int
	opTimeout  time.Duration
	ownsRegion bool // Attach mode: this endpoint's Close unmaps

	closed atomic.Bool
	ops    atomic.Int64 // in-flight Send/Recv/Abort count, gates unmap

	prod []*lane // to*streams+stream
	cons []*lane // from*streams+stream
	met  *shmMetrics
}

var _ transport.Endpoint = (*Endpoint)(nil)
var _ transport.Aborter = (*Endpoint)(nil)

func newEndpoint(reg *region, rank int, cfg config, ownsRegion bool, wakes []wake) *Endpoint {
	e := &Endpoint{
		reg: reg, rank: rank, size: reg.size, streams: reg.streams,
		opTimeout: cfg.opTimeout, ownsRegion: ownsRegion,
		prod: make([]*lane, reg.size*reg.streams),
		cons: make([]*lane, reg.size*reg.streams),
		met:  newShmMetrics(rank, reg.size, reg.streams),
	}
	for peer := 0; peer < reg.size; peer++ {
		for s := 0; s < reg.streams; s++ {
			e.prod[peer*reg.streams+s] = newLane(reg, rank, peer, s, wakes)
			e.cons[peer*reg.streams+s] = newLane(reg, peer, rank, s, wakes)
		}
	}
	return e
}

func (e *Endpoint) Rank() int    { return e.rank }
func (e *Endpoint) Size() int    { return e.size }
func (e *Endpoint) Streams() int { return e.streams }

// enter registers an in-flight op; the refcount keeps Close from unmapping
// the region under a running Send/Recv. The increment happens before the
// closed check, so Close's drain cannot miss us.
func (e *Endpoint) enter() error {
	e.ops.Add(1)
	if e.closed.Load() {
		e.ops.Add(-1)
		return transport.ErrClosed
	}
	return nil
}

func (e *Endpoint) exit() { e.ops.Add(-1) }

func (e *Endpoint) deadline() time.Time {
	if e.opTimeout <= 0 {
		return time.Time{}
	}
	return time.Now().Add(e.opTimeout)
}

func (e *Endpoint) peerClosed(r int) bool { return e.reg.rankState(r).Load() == rankClosed }

// waiter tracks one blocking episode's escalation state and records a
// spin-vs-park sample when the episode resolves.
type waiter struct {
	spins    int
	slept    bool
	backstop bool // the episode was ended by the park timer, not a signal
}

func (w *waiter) settle(c *waitCounters) {
	if w.spins == 0 {
		return
	}
	if w.slept {
		c.parks.Inc()
		if w.backstop {
			c.backstops.Inc()
		}
	} else {
		c.spins.Inc()
	}
	*w = waiter{}
}

// await is one round of a blocked side's wait on cur, which it last saw at
// seen. In-process lanes yield wakeSpins rounds, then park on sig; Attach
// lanes (sig nil) step through the sleep loop.
func (e *Endpoint) await(l *lane, w *waiter, sig *wake, cur *atomic.Uint64, seen uint64, peer int, deadline time.Time) error {
	if sig == nil {
		return w.step(deadline)
	}
	w.spins++
	if w.spins <= wakeSpins {
		runtime.Gosched()
		return nil
	}
	d := parkBackstop
	if !deadline.IsZero() {
		left := time.Until(deadline)
		if left <= 0 {
			return transport.ErrTimeout
		}
		d = min(d, left)
	}
	w.slept = true
	// Publish, then re-check: the peer stores its cursor, then loads
	// waiting, so either it sees us or we see its store. Close kicks
	// regardless of waiting, so its flags need no such ordering.
	sig.waiting.Store(1)
	defer sig.waiting.Store(0)
	if cur.Load() != seen || e.closed.Load() || (peer != e.rank && e.peerClosed(peer)) {
		return nil
	}
	t := l.parkTimer(d)
	select {
	case <-sig.ch:
		t.Stop()
	case <-t.C:
		if cur.Load() != seen { // progress without a signal
			select {
			case <-sig.ch: // the signal raced the timer
			default:
				w.backstop = true
			}
		}
	}
	return nil
}

// parkTimer arms the lane side's reused backstop timer. Only one goroutine
// parks on a lane side at a time (l.mu or l.rmu is held), and every park
// stops or drains the timer before returning, so Reset finds it idle.
func (l *lane) parkTimer(d time.Duration) *time.Timer {
	if l.timer == nil {
		l.timer = time.NewTimer(d)
	} else {
		l.timer.Reset(d)
	}
	return l.timer
}

// step advances the episode: Gosched for the first spinYields rounds, then
// escalating sleeps. Returns transport.ErrTimeout once the deadline passes.
func (w *waiter) step(deadline time.Time) error {
	w.spins++
	if w.spins <= spinYields {
		runtime.Gosched()
		return nil
	}
	if !deadline.IsZero() && time.Now().After(deadline) {
		return transport.ErrTimeout
	}
	w.slept = true
	d := parkBase << uint(min(w.spins-spinYields-1, 30))
	if d > parkMax || d <= 0 {
		d = parkMax
	}
	time.Sleep(d)
	return nil
}

// write streams p into the lane's ring, blocking while full. Called with
// l.mu held; the local tail mirror is authoritative (sole producer).
func (e *Endpoint) write(l *lane, to int, p []byte, deadline time.Time) error {
	tail := l.tail.Load()
	var w waiter
	defer w.settle(&e.met.send)
	for len(p) > 0 {
		head := l.head.Load()
		free := len(l.buf) - int(tail-head)
		if free <= 0 {
			if e.closed.Load() {
				return transport.ErrClosed
			}
			if to != e.rank && e.peerClosed(to) {
				return &transport.PeerFailedError{Rank: to, Cause: transport.ErrClosed}
			}
			if err := e.await(l, &w, l.space, l.head, head, to, deadline); err != nil {
				return err
			}
			continue
		}
		w.settle(&e.met.send)
		n := min(free, len(p))
		pos := int(tail & l.mask)
		k := copy(l.buf[pos:], p[:n])
		if k < n {
			copy(l.buf, p[k:n])
		}
		tail += uint64(n)
		l.tail.Store(tail)
		if l.data != nil {
			l.data.signal()
		}
		p = p[n:]
	}
	return nil
}

// read fills dst from the lane's ring, blocking while empty. Called with
// l.rmu held.
func (e *Endpoint) read(l *lane, from int, dst []byte, deadline time.Time) error {
	head := l.head.Load()
	var w waiter
	defer w.settle(&e.met.recv)
	for len(dst) > 0 {
		tail := l.tail.Load()
		avail := int(tail - head)
		if avail <= 0 {
			if e.closed.Load() {
				return transport.ErrClosed
			}
			if from != e.rank && e.peerClosed(from) {
				// Producer is gone: re-check for bytes it wrote before
				// closing (writes are ordered before the state store).
				if l.tail.Load() != head {
					continue
				}
				return &transport.PeerFailedError{Rank: from, Cause: transport.ErrClosed}
			}
			if err := e.await(l, &w, l.data, l.tail, tail, from, deadline); err != nil {
				return err
			}
			continue
		}
		w.settle(&e.met.recv)
		n := min(avail, len(dst))
		pos := int(head & l.mask)
		k := copy(dst[:n], l.buf[pos:])
		if k < n {
			copy(dst[k:n], l.buf)
		}
		head += uint64(n)
		l.head.Store(head)
		if l.space != nil {
			l.space.signal()
		}
		dst = dst[n:]
	}
	return nil
}

// Send delivers data to rank `to` on the given stream by copying it into the
// lane's ring, then recycles the slice into the shared wire pool — ownership
// moved to the transport exactly as the contract requires, with the copy
// standing in for the wire. Self-sends loop back through the rank's own
// ring, matching memnet.
func (e *Endpoint) Send(to, stream int, data []byte) error {
	if err := e.checkArgs(to, stream); err != nil {
		return err
	}
	if len(data) > maxFrameBytes {
		return fmt.Errorf("send %d->%d stream %d: %w: %d bytes", e.rank, to, stream, transport.ErrFrameTooLarge, len(data))
	}
	if err := e.enter(); err != nil {
		bufpool.Put(data)
		return err
	}
	defer e.exit()
	l := e.prod[to*e.streams+stream]
	l.mu.Lock()
	err := e.sendLocked(l, to, stream, uint32(len(data)), data)
	l.mu.Unlock()
	bufpool.Put(data)
	if err != nil {
		return e.classifySend(to, stream, err)
	}
	idx := to*e.streams + stream
	e.met.txBytes[idx].Add(int64(len(data)))
	e.met.txFrames[idx].Inc()
	return nil
}

// sendLocked writes one framed message (4-byte BE length word, then body).
// A mid-frame failure leaves a torn frame in the ring; the lane is wedged
// and stays failed for every later send, like a TCP socket after a write
// timeout.
func (e *Endpoint) sendLocked(l *lane, to, stream int, lenWord uint32, body []byte) error {
	if l.sendErr != nil {
		return l.sendErr
	}
	deadline := e.deadline()
	e.met.observeOccupancy(l)
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], lenWord)
	if err := e.write(l, to, hdr[:], deadline); err != nil {
		l.sendErr = err
		return err
	}
	if err := e.write(l, to, body, deadline); err != nil {
		l.sendErr = err
		return err
	}
	return nil
}

func (e *Endpoint) classifySend(to, stream int, err error) error {
	if errors.Is(err, transport.ErrClosed) && !errors.Is(err, transport.ErrPeerFailed) {
		return transport.ErrClosed
	}
	return fmt.Errorf("send %d->%d stream %d: %w", e.rank, to, stream, err)
}

// Recv blocks until a frame from rank `from` on the given stream is
// available, copies it into a pooled buffer and returns it; the caller owns
// the buffer.
func (e *Endpoint) Recv(from, stream int) ([]byte, error) {
	if err := e.checkArgs(from, stream); err != nil {
		return nil, err
	}
	if err := e.enter(); err != nil {
		return nil, err
	}
	defer e.exit()
	l := e.cons[from*e.streams+stream]
	l.rmu.Lock()
	defer l.rmu.Unlock()
	if l.recvErr != nil {
		return nil, l.recvErr
	}
	deadline := e.deadline()
	var hdr [4]byte
	if err := e.read(l, from, hdr[:], deadline); err != nil {
		return nil, e.classifyRecv(from, stream, err)
	}
	size := binary.BigEndian.Uint32(hdr[:])
	if size == abortMarker {
		var origin [4]byte
		if err := e.read(l, from, origin[:], deadline); err != nil {
			return nil, e.classifyRecv(from, stream, err)
		}
		// The lane is condemned: this and every later Recv reports the
		// abort's origin (frames queued ahead of the marker were already
		// delivered in order).
		l.recvErr = fmt.Errorf("recv %d<-%d stream %d: %w", e.rank, from, stream,
			&transport.PeerFailedError{Rank: int(binary.BigEndian.Uint32(origin[:])), Cause: transport.ErrAborted})
		return nil, l.recvErr
	}
	if size > maxFrameBytes {
		l.recvErr = fmt.Errorf("recv %d<-%d stream %d: %w: length word %#x",
			e.rank, from, stream, transport.ErrFrameTooLarge, size)
		return nil, l.recvErr
	}
	buf := bufpool.Get(int(size))
	if err := e.read(l, from, buf, deadline); err != nil {
		bufpool.Put(buf)
		return nil, e.classifyRecv(from, stream, err)
	}
	idx := from*e.streams + stream
	e.met.rxBytes[idx].Add(int64(size))
	e.met.rxFrames[idx].Inc()
	return buf, nil
}

func (e *Endpoint) classifyRecv(from, stream int, err error) error {
	if errors.Is(err, transport.ErrClosed) && !errors.Is(err, transport.ErrPeerFailed) {
		return transport.ErrClosed
	}
	return fmt.Errorf("recv %d<-%d stream %d: %w", e.rank, from, stream, err)
}

// Abort implements transport.Aborter: it queues an in-stream abort control
// frame on the (to, stream) lane. Frames already in the ring are delivered
// first; the peer's Recv then fails with a *transport.PeerFailedError naming
// origin, permanently.
func (e *Endpoint) Abort(to, stream, origin int) error {
	if err := e.checkArgs(to, stream); err != nil {
		return err
	}
	if err := e.enter(); err != nil {
		return err
	}
	defer e.exit()
	l := e.prod[to*e.streams+stream]
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.aborted {
		return nil
	}
	var body [4]byte
	binary.BigEndian.PutUint32(body[:], uint32(origin))
	if err := e.sendLocked(l, to, stream, abortMarker, body[:]); err != nil {
		return e.classifySend(to, stream, err)
	}
	l.aborted = true
	return nil
}

func (e *Endpoint) checkArgs(peer, stream int) error {
	if peer < 0 || peer >= e.size {
		return fmt.Errorf("%w: %d not in [0,%d)", transport.ErrBadRank, peer, e.size)
	}
	if stream < 0 || stream >= e.streams {
		return fmt.Errorf("%w: %d not in [0,%d)", transport.ErrBadStream, stream, e.streams)
	}
	return nil
}

// shutdown marks the endpoint closed locally and in the shared rank slot, so
// peers blocked on this rank's lanes fail with a PeerFailedError instead of
// waiting out their deadline — the shm analogue of the TCP connection-error
// fan-out.
func (e *Endpoint) shutdown() {
	if !e.closed.CompareAndSwap(false, true) {
		return
	}
	if e.reg.mem != nil {
		e.reg.rankState(e.rank).Store(rankClosed)
	}
	// Every lane this rank reads or writes: its own parked ops see closed,
	// the peer's see the rank gone.
	for _, lanes := range [2][]*lane{e.prod, e.cons} {
		for _, l := range lanes {
			if l.data != nil {
				l.data.kick()
				l.space.kick()
			}
		}
	}
}

// drainOps waits for in-flight ops to observe the closed flag and return.
func (e *Endpoint) drainOps(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for e.ops.Load() != 0 {
		if time.Now().After(deadline) {
			return false
		}
		runtime.Gosched()
	}
	return true
}

// Close releases the endpoint. Pending and subsequent operations fail with
// ErrClosed; peers observe the rank as failed. In Attach mode the mapping is
// unmapped once in-flight ops drain.
func (e *Endpoint) Close() error {
	e.shutdown()
	if e.ownsRegion {
		if e.drainOps(2 * time.Second) {
			e.reg.unmap()
		}
	}
	return nil
}
