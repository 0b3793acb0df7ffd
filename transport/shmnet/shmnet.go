// Package shmnet is the third transport.Network: lock-free SPSC ring buffers
// in file-backed shared memory, for ranks co-located on one host. Where the
// TCP mesh pays syscalls, socket buffers and kernel copies per frame, a shm
// lane is at most two memcpys through an mmap'd ring with cache-line-padded
// cursors — the "fast intra-node fabric" of the paper's two-tier testbed,
// standing in for NVLink the way tcpnet stands in for the inter-node network.
//
// One ring exists per directed (from, to, stream) triple, so streams between
// the same pair never block each other (the property the multi-streamed
// all-reduce relies on) and each ring has exactly one producer and one
// consumer. Frames use the TCP wire format — 4-byte big-endian length, then
// payload — and every frame starts on a 4-byte boundary of the ring (layout
// version 2). A frame of at most half the ring, length word included, is
// never split by the ring's end: when it would straddle it, a skip word
// takes its place and sends the reader to the ring's start, where the frame
// is written whole. Larger frames stream through the ring in pieces, so
// frames larger than the ring work.
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
// Send and Recv satisfy the buffer-ownership contract (transport.Endpoint)
// by copy: Send copies the payload into the ring and recycles the slice into
// the shared wire pool (ownership moved to the transport); Recv carves a
// pooled buffer and copies the frame out (ownership moved to the caller).
// Both sides are alloc-free at steady state. The transport.Lender methods
// skip those copies for frames of at most half the ring: Lend hands out the
// frame where it lies in the ring and frees its space at Release, and Reserve
// hands out the free ring space a frame will occupy, for the caller to
// encode into, and publishes it at Commit. Reserve never waits: a ring
// without the room returns no slot. A lend or reservation holds its lane
// side and counts as an in-flight op until it ends, so Close never unmaps
// the region under one. Lend satisfies only frames above half the ring by
// copy, lending a pooled copy that Release recycles.
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

// errNotHeld reports a Release or Commit with no lend or reservation to end.
var errNotHeld = errors.New("shmnet: lane side not lent or reserved")

const (
	// maxFrameBytes mirrors tcpnet: length words above it are control
	// markers or corruption.
	maxFrameBytes = 1 << 30
	// abortMarker frames carry a 4-byte big-endian origin rank (same
	// encoding as tcpnet's abort control frame).
	abortMarker = 0xFFFFFFFE
	// skipMarker is the length word of a skip: the rest of the ring up to
	// its end is unused, and the next frame starts at the ring's start.
	skipMarker = 0xFFFFFFFD

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
	recvErr error // consumer: sticky after an abort marker, a framing violation or a mid-frame failure

	// Held sides (transport.Lender), guarded like the rest of their side.
	reserved bool   // producer: a Reserve awaits its Commit
	resStart uint64 // producer: cursor of the reserved frame's length word
	resN     int    // producer: the reserved payload's length
	lent     bool   // consumer: a Lend awaits its Release
	lentEnd  uint64 // consumer: the head after a frame lent in place
	lentCopy []byte // consumer: the pooled copy of a lent frame above half the ring

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
// transport.Endpoint, transport.Aborter and transport.Lender.
type Endpoint struct {
	reg        *region
	rank       int
	size       int
	streams    int
	opTimeout  time.Duration
	ownsRegion bool // Attach mode: this endpoint's Close unmaps

	closed atomic.Bool
	ops    atomic.Int64 // in-flight ops (a lend or reservation until it ends), gates unmap

	prod []*lane // to*streams+stream
	cons []*lane // from*streams+stream
	met  *shmMetrics
}

var _ transport.Endpoint = (*Endpoint)(nil)
var _ transport.Aborter = (*Endpoint)(nil)
var _ transport.Lender = (*Endpoint)(nil)

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

// align4 rounds a ring cursor up to the next frame boundary.
func align4(c uint64) uint64 { return (c + 3) &^ 3 }

// whole reports whether a frame with an n-byte payload is kept contiguous in
// the ring: at most half of it, length word included.
func (l *lane) whole(n int) bool { return 4+n <= len(l.buf)/2 }

// place returns the cursor of the length word of a frame with an n-byte
// payload written after tail: the next 4-byte boundary, or, for a whole
// frame that would straddle the ring's end from there, the next ring start,
// with a skip word at the boundary.
func (l *lane) place(tail uint64, n int) uint64 {
	start := align4(tail)
	if pos := int(start & l.mask); l.whole(n) && pos+4+n > len(l.buf) {
		start += uint64(len(l.buf) - pos)
	}
	return start
}

// putHead writes, into the free space after tail, the length word of the
// frame placed at start and the skip word before it if place put one there.
func (l *lane) putHead(tail, start uint64, lenWord uint32) {
	if a := align4(tail); a != start {
		binary.BigEndian.PutUint32(l.buf[a&l.mask:], skipMarker)
	}
	binary.BigEndian.PutUint32(l.buf[start&l.mask:], lenWord)
}

// publishTail stores the producer cursor, then signals a parked reader.
func (l *lane) publishTail(tail uint64) {
	l.tail.Store(tail)
	if l.data != nil {
		l.data.signal()
	}
}

// publishHead stores the consumer cursor, then signals a parked writer.
func (l *lane) publishHead(head uint64) {
	l.head.Store(head)
	if l.space != nil {
		l.space.signal()
	}
}

// awaitSpace blocks until the ring has at least need free bytes after tail
// and returns how many it has. Called with l.mu held; the local tail mirror
// is authoritative (sole producer).
func (e *Endpoint) awaitSpace(l *lane, to int, tail uint64, need int, deadline time.Time) (int, error) {
	var w waiter
	defer w.settle(&e.met.send)
	for {
		head := l.head.Load()
		if free := len(l.buf) - int(tail-head); free >= need {
			return free, nil
		}
		if e.closed.Load() {
			return 0, transport.ErrClosed
		}
		if to != e.rank && e.peerClosed(to) {
			return 0, &transport.PeerFailedError{Rank: to, Cause: transport.ErrClosed}
		}
		if err := e.await(l, &w, l.space, l.head, head, to, deadline); err != nil {
			return 0, err
		}
	}
}

// awaitData blocks until at least need bytes after head are published and
// returns how many are. Called with l.rmu held.
func (e *Endpoint) awaitData(l *lane, from int, head uint64, need int, deadline time.Time) (int, error) {
	var w waiter
	defer w.settle(&e.met.recv)
	for {
		tail := l.tail.Load()
		if avail := int(tail - head); avail >= need {
			return avail, nil
		}
		if e.closed.Load() {
			return 0, transport.ErrClosed
		}
		if from != e.rank && e.peerClosed(from) {
			// Producer is gone: re-check for bytes it wrote before
			// closing (writes are ordered before the state store).
			if l.tail.Load() != tail {
				continue
			}
			return 0, &transport.PeerFailedError{Rank: from, Cause: transport.ErrClosed}
		}
		if err := e.await(l, &w, l.data, l.tail, tail, from, deadline); err != nil {
			return 0, err
		}
	}
}

// write streams p into the lane's ring, blocking while full. Called with
// l.mu held.
func (e *Endpoint) write(l *lane, to int, p []byte, deadline time.Time) error {
	tail := l.tail.Load()
	for len(p) > 0 {
		free, err := e.awaitSpace(l, to, tail, 1, deadline)
		if err != nil {
			return err
		}
		n := min(free, len(p))
		pos := int(tail & l.mask)
		k := copy(l.buf[pos:], p[:n])
		if k < n {
			copy(l.buf, p[k:n])
		}
		tail += uint64(n)
		l.publishTail(tail)
		p = p[n:]
	}
	return nil
}

// read fills dst from the lane's ring, blocking while empty. Called with
// l.rmu held.
func (e *Endpoint) read(l *lane, from int, dst []byte, deadline time.Time) error {
	head := l.head.Load()
	for len(dst) > 0 {
		avail, err := e.awaitData(l, from, head, 1, deadline)
		if err != nil {
			return err
		}
		n := min(avail, len(dst))
		pos := int(head & l.mask)
		k := copy(dst[:n], l.buf[pos:])
		if k < n {
			copy(dst[k:n], l.buf)
		}
		head += uint64(n)
		l.publishHead(head)
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
	err := e.sendLocked(l, to, uint32(len(data)), data)
	l.mu.Unlock()
	bufpool.Put(data)
	if err != nil {
		return e.classifySend(to, stream, err)
	}
	e.met.countTx(to*e.streams+stream, len(data))
	return nil
}

// sendLocked writes one framed message: any alignment padding and skip word,
// the 4-byte BE length word, then the body. Padding, skip and length word
// are published in one cursor store, so a reader that sees any of them sees
// the length word. A mid-frame failure leaves a torn frame in the ring; the
// lane is wedged and stays failed for every later send, like a TCP socket
// after a write timeout.
func (e *Endpoint) sendLocked(l *lane, to int, lenWord uint32, body []byte) error {
	if l.reserved {
		return transport.ErrBusy
	}
	if l.sendErr != nil {
		return l.sendErr
	}
	deadline := e.deadline()
	e.met.observeOccupancy(l)
	tail := l.tail.Load()
	start := l.place(tail, len(body))
	_, err := e.awaitSpace(l, to, tail, int(start-tail)+4, deadline)
	if err == nil {
		l.putHead(tail, start, lenWord)
		l.publishTail(start + 4)
		err = e.write(l, to, body, deadline)
	}
	if err != nil {
		l.sendErr = err
	}
	return err
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
	deadline := e.deadline()
	size, err := e.header(l, from, stream, deadline)
	if err != nil {
		return nil, err
	}
	buf := bufpool.Get(size)
	if err := e.read(l, from, buf, deadline); err != nil {
		bufpool.Put(buf)
		return nil, e.failRecv(l, from, stream, err)
	}
	e.met.countRx(from*e.streams+stream, size)
	return buf, nil
}

// failRecv fails the lane side for good after header consumed a frame's
// length word and a later step failed: the rest of the frame may still
// arrive, and the next read would take its bytes for a length word. It
// mirrors sendLocked's sticky sendErr. Called with l.rmu held.
func (e *Endpoint) failRecv(l *lane, from, stream int, err error) error {
	l.recvErr = e.classifyRecv(from, stream, err)
	return l.recvErr
}

// header waits for the next frame and consumes its length word, with the
// padding and skip word before it, returning the payload size; an abort
// marker or a bad length word fails the lane for good. Called with l.rmu
// held.
func (e *Endpoint) header(l *lane, from, stream int, deadline time.Time) (int, error) {
	if l.lent {
		return 0, fmt.Errorf("recv %d<-%d stream %d: %w", e.rank, from, stream, transport.ErrBusy)
	}
	if l.recvErr != nil {
		return 0, l.recvErr
	}
	head := l.head.Load()
	start := align4(head)
	if _, err := e.awaitData(l, from, head, int(start-head)+4, deadline); err != nil {
		return 0, e.classifyRecv(from, stream, err)
	}
	size := binary.BigEndian.Uint32(l.buf[start&l.mask:])
	if size == skipMarker {
		start += uint64(len(l.buf)) - start&l.mask
		size = binary.BigEndian.Uint32(l.buf)
	}
	l.publishHead(start + 4)
	if size == abortMarker {
		var origin [4]byte
		if err := e.read(l, from, origin[:], deadline); err != nil {
			return 0, e.classifyRecv(from, stream, err)
		}
		// The lane is condemned: this and every later Recv reports the
		// abort's origin (frames queued ahead of the marker were already
		// delivered in order).
		l.recvErr = fmt.Errorf("recv %d<-%d stream %d: %w", e.rank, from, stream,
			&transport.PeerFailedError{Rank: int(binary.BigEndian.Uint32(origin[:])), Cause: transport.ErrAborted})
		return 0, l.recvErr
	}
	if size > maxFrameBytes {
		l.recvErr = fmt.Errorf("recv %d<-%d stream %d: %w: length word %#x",
			e.rank, from, stream, transport.ErrFrameTooLarge, size)
		return 0, l.recvErr
	}
	return int(size), nil
}

// Lend implements transport.Lender: it blocks like Recv for the next frame
// and returns it in place in the ring, a frame above half the ring as a
// pooled copy. The lane side stays held, and the op in flight, until
// Release.
func (e *Endpoint) Lend(from, stream int) ([]byte, error) {
	if err := e.checkArgs(from, stream); err != nil {
		return nil, err
	}
	if err := e.enter(); err != nil {
		return nil, err
	}
	l := e.cons[from*e.streams+stream]
	l.rmu.Lock()
	defer l.rmu.Unlock()
	p, err := e.lendLocked(l, from, stream)
	if err != nil {
		e.exit()
		return nil, err
	}
	l.lent = true
	e.met.countRx(from*e.streams+stream, len(p))
	return p, nil
}

func (e *Endpoint) lendLocked(l *lane, from, stream int) ([]byte, error) {
	deadline := e.deadline()
	size, err := e.header(l, from, stream, deadline)
	if err != nil {
		return nil, err
	}
	if !l.whole(size) {
		buf := bufpool.Get(size)
		if err := e.read(l, from, buf, deadline); err != nil {
			bufpool.Put(buf)
			return nil, e.failRecv(l, from, stream, err)
		}
		l.lentCopy = buf
		return buf, nil
	}
	head := l.head.Load()
	pos := int(head & l.mask)
	if pos+size > len(l.buf) {
		l.recvErr = fmt.Errorf("recv %d<-%d stream %d: %w: %d-byte frame split at the ring's end",
			e.rank, from, stream, transport.ErrFrameTooLarge, size)
		return nil, l.recvErr
	}
	if _, err := e.awaitData(l, from, head, size, deadline); err != nil {
		return nil, e.failRecv(l, from, stream, err)
	}
	l.lentEnd = head + uint64(size)
	e.met.lent.Inc()
	return l.buf[pos : pos+size : pos+size], nil
}

// Release implements transport.Lender: it ends the lend on the lane side,
// freeing the frame's ring space (or recycling its copy).
func (e *Endpoint) Release(from, stream int) error {
	if err := e.checkArgs(from, stream); err != nil {
		return err
	}
	l := e.cons[from*e.streams+stream]
	l.rmu.Lock()
	defer l.rmu.Unlock()
	if !l.lent {
		return fmt.Errorf("release %d<-%d stream %d: %w", e.rank, from, stream, errNotHeld)
	}
	l.lent = false
	if l.lentCopy != nil {
		bufpool.Put(l.lentCopy)
		l.lentCopy = nil
	} else {
		l.publishHead(l.lentEnd)
	}
	e.exit()
	return nil
}

// Reserve implements transport.Lender: it claims the ring space of one
// n-byte frame when the ring has it now, without waiting, and returns the
// payload's slot there. A frame above half the ring, a ring without the
// room, and a lane side another goroutine is using get no slot.
func (e *Endpoint) Reserve(to, stream, n int) ([]byte, error) {
	if err := e.checkArgs(to, stream); err != nil {
		return nil, err
	}
	l := e.prod[to*e.streams+stream]
	if n < 0 || !l.whole(n) || !l.mu.TryLock() {
		e.met.fallbacks.Inc()
		return nil, nil
	}
	defer l.mu.Unlock()
	if err := e.enter(); err != nil {
		return nil, err
	}
	switch {
	case l.reserved:
		e.exit()
		return nil, fmt.Errorf("send %d->%d stream %d: %w", e.rank, to, stream, transport.ErrBusy)
	case l.sendErr != nil:
		e.exit()
		return nil, e.classifySend(to, stream, l.sendErr)
	}
	tail := l.tail.Load()
	start := l.place(tail, n)
	if int(start-tail)+4+n > len(l.buf)-int(tail-l.head.Load()) {
		e.exit()
		e.met.fallbacks.Inc()
		return nil, nil
	}
	e.met.observeOccupancy(l)
	l.reserved, l.resStart, l.resN = true, start, n
	pos := int(start&l.mask) + 4
	return l.buf[pos : pos+n : pos+n], nil
}

// Commit implements transport.Lender: it ends the reservation on the lane
// side, publishing the slot as one frame when publish is set.
func (e *Endpoint) Commit(to, stream int, publish bool) error {
	if err := e.checkArgs(to, stream); err != nil {
		return err
	}
	l := e.prod[to*e.streams+stream]
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.reserved {
		return fmt.Errorf("commit %d->%d stream %d: %w", e.rank, to, stream, errNotHeld)
	}
	l.reserved = false
	defer e.exit()
	if !publish {
		return nil
	}
	if e.closed.Load() {
		return transport.ErrClosed
	}
	l.putHead(l.tail.Load(), l.resStart, uint32(l.resN))
	l.publishTail(l.resStart + 4 + uint64(l.resN))
	e.met.reserved.Inc()
	e.met.countTx(to*e.streams+stream, l.resN)
	return nil
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
	if err := e.sendLocked(l, to, abortMarker, body[:]); err != nil {
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
