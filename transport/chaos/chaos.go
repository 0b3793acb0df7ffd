// Package chaos is the deterministic fault-injection transport (DESIGN.md
// §8): a Network/Endpoint decorator that wraps any transport — the in-process
// mem transport and the real TCP mesh alike — and injects faults from a
// seeded Plan. The same seed always produces the same fault schedule, so
// every failure a chaos test finds is reproducible by rerunning its seed.
//
// Faults compose with the zero-copy data plane by respecting the
// buffer-ownership contract (DESIGN.md §6): a payload swallowed by a
// blackholed or dropped send is recycled into the shared wire pool exactly as
// the real transport would after writing it, so aborted and faulted runs
// leave the pool balanced — which is what lets the failure tests assert
// bufpool.Outstanding() deltas.
//
// Fault vocabulary:
//
//   - CrashRank: the rank dies after its Nth send — its underlying endpoint
//     closes mid-collective (peers see connection death / liveness timeouts /
//     lane poison, never a graceful goodbye) and every later operation on the
//     rank fails with ErrKilled.
//   - Partition: asymmetric blackhole — sends from a to b report success and
//     vanish; b must unwind through its own deadline.
//   - DropMessage: blackhole a single numbered message on one lane.
//   - TruncateFrame: deliver a numbered frame short by k bytes — a valid
//     transport frame whose decode fails upstream, exercising the
//     corrupt-payload abort path.
//   - Delay / StallReceiver: deterministic latency injection on sends
//     (per-lane seeded jitter) or on a rank's receives.
package chaos

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"aiacc/internal/bufpool"
	"aiacc/transport"
)

// ErrKilled is returned by every operation on a rank the plan has crashed.
// It wraps transport.ErrClosed: a killed rank behaves exactly like one whose
// process is gone, so the collective layer treats it as local teardown and
// does not send abort frames on its behalf — peers must detect the death the
// hard way, which is the scenario worth testing.
var ErrKilled = fmt.Errorf("chaos: rank killed by plan: %w", transport.ErrClosed)

// lane identifies a directed (from, to, stream) edge; stream -1 in a Plan
// rule matches every stream of the pair.
type lane struct {
	from, to, stream int
}

type delaySpec struct {
	base   time.Duration
	jitter time.Duration
}

type crashSpec struct {
	afterSends int64
}

type truncSpec struct {
	nth   int64 // 1-based send number on the lane
	bytes int   // how many bytes to cut from the tail
}

// Plan is a deterministic fault schedule. Build it with the chainable rule
// methods (or Randomized), then hand it to Wrap; it must not be mutated
// afterwards. A zero-rule plan injects nothing — Wrap with such a plan is a
// transparent pass-through, which the soak tests use as their control arm.
type Plan struct {
	seed       int64
	delays     map[lane]delaySpec
	partitions map[lane]bool // stream always -1: partitions cover all streams
	crashes    map[int]crashSpec
	stalls     map[int]time.Duration
	truncs     map[lane][]truncSpec
	drops      map[lane]map[int64]bool
}

// NewPlan returns an empty plan whose jitter streams derive from seed.
func NewPlan(seed int64) *Plan {
	return &Plan{
		seed:       seed,
		delays:     make(map[lane]delaySpec),
		partitions: make(map[lane]bool),
		crashes:    make(map[int]crashSpec),
		stalls:     make(map[int]time.Duration),
		truncs:     make(map[lane][]truncSpec),
		drops:      make(map[lane]map[int64]bool),
	}
}

// CrashRank schedules rank to die permanently after its afterSends-th
// successful send attempt (1-based; 0 means "on the first send"). The crash
// closes the rank's underlying endpoint, so peers observe connection death,
// not a clean shutdown.
func (p *Plan) CrashRank(rank, afterSends int) *Plan {
	p.crashes[rank] = crashSpec{afterSends: int64(afterSends)}
	return p
}

// Partition blackholes every message from rank a to rank b (asymmetric: b's
// messages to a still flow — the nastier half-open failure mode).
func (p *Plan) Partition(a, b int) *Plan {
	p.partitions[lane{from: a, to: b, stream: -1}] = true
	return p
}

// Delay adds base (+ deterministic jitter in [0, jitter)) of latency to every
// send on the (from, to, stream) lane; stream -1 applies to all streams of
// the pair.
func (p *Plan) Delay(from, to, stream int, base, jitter time.Duration) *Plan {
	p.delays[lane{from: from, to: to, stream: stream}] = delaySpec{base: base, jitter: jitter}
	return p
}

// StallReceiver delays every Recv performed by rank by d — the slow-receiver
// backpressure scenario.
func (p *Plan) StallReceiver(rank int, d time.Duration) *Plan {
	p.stalls[rank] = d
	return p
}

// TruncateFrame cuts `bytes` bytes off the tail of the nth (1-based) send on
// the (from, to, stream) lane. The truncated frame is framed and delivered
// normally by the transport; the receiver's decode fails instead.
func (p *Plan) TruncateFrame(from, to, stream int, nth int64, bytes int) *Plan {
	k := lane{from: from, to: to, stream: stream}
	p.truncs[k] = append(p.truncs[k], truncSpec{nth: nth, bytes: bytes})
	return p
}

// DropMessage blackholes the nth (1-based) send on the (from, to, stream)
// lane: the sender sees success, the receiver sees nothing.
func (p *Plan) DropMessage(from, to, stream int, nth int64) *Plan {
	k := lane{from: from, to: to, stream: stream}
	if p.drops[k] == nil {
		p.drops[k] = make(map[int64]bool)
	}
	p.drops[k][nth] = true
	return p
}

// Lethal reports whether the plan contains any fault that breaks a
// collective (crash, partition, drop, truncation) rather than merely slowing
// it. A soak run asserts lethal plans end in wrapped peer-failure/timeout
// errors on every surviving rank, and non-lethal plans still compute correct
// results.
func (p *Plan) Lethal() bool {
	return len(p.crashes) > 0 || len(p.partitions) > 0 || len(p.drops) > 0 || len(p.truncs) > 0
}

// Victims returns the ranks the plan crashes, ascending.
func (p *Plan) Victims() []int {
	var out []int
	for r := range p.crashes {
		out = append(out, r)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Randomized draws a reproducible fault scenario for a size×streams mesh from
// seed. Roughly: always some cross-lane delay noise; a coin-flip between a
// rank crash, an asymmetric partition, a dropped message, or a truncated
// frame (so most seeds are lethal in distinct ways); occasionally a pure
// slow-receiver seed that must still produce correct results.
func Randomized(seed int64, size, streams int) *Plan {
	rng := rand.New(rand.NewSource(seed))
	p := NewPlan(seed)
	// Latency noise on a few random lanes.
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		from := rng.Intn(size)
		to := rng.Intn(size)
		if from == to {
			continue
		}
		p.Delay(from, to, -1, time.Duration(rng.Intn(500))*time.Microsecond,
			time.Duration(rng.Intn(500))*time.Microsecond)
	}
	switch rng.Intn(5) {
	case 0: // crash
		p.CrashRank(rng.Intn(size), 1+rng.Intn(24))
	case 1: // asymmetric partition
		from := rng.Intn(size)
		p.Partition(from, (from+1+rng.Intn(size-1))%size)
	case 2: // single dropped message
		from := rng.Intn(size)
		to := (from + 1 + rng.Intn(size-1)) % size
		p.DropMessage(from, to, rng.Intn(streams), int64(1+rng.Intn(8)))
	case 3: // truncated frame
		from := rng.Intn(size)
		to := (from + 1 + rng.Intn(size-1)) % size
		p.TruncateFrame(from, to, rng.Intn(streams), int64(1+rng.Intn(8)), 1+rng.Intn(3))
	case 4: // slow receiver only: non-lethal, result must stay correct
		p.StallReceiver(rng.Intn(size), time.Duration(1+rng.Intn(3))*time.Millisecond)
	}
	return p
}

// Network decorates an inner transport.Network with a fault plan.
type Network struct {
	inner transport.Network
	plan  *Plan

	mu  sync.Mutex
	eps []*Endpoint
}

var _ transport.Network = (*Network)(nil)

// Wrap decorates inner with the plan's faults. The plan must not be mutated
// after Wrap.
func Wrap(inner transport.Network, plan *Plan) *Network {
	if plan == nil {
		plan = NewPlan(0)
	}
	return &Network{
		inner: inner,
		plan:  plan,
		eps:   make([]*Endpoint, inner.Size()),
	}
}

// Size implements transport.Network.
func (n *Network) Size() int { return n.inner.Size() }

// Streams implements transport.Network.
func (n *Network) Streams() int { return n.inner.Streams() }

// Endpoint implements transport.Network. Decorated endpoints are cached, so
// fault counters survive repeated lookups of the same rank.
func (n *Network) Endpoint(r int) (transport.Endpoint, error) {
	inner, err := n.inner.Endpoint(r)
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.eps[r] == nil {
		n.eps[r] = newEndpoint(n, inner, r)
	}
	return n.eps[r], nil
}

// Kill crashes rank immediately — the runtime trigger behind the engine-level
// crash/recovery test. Equivalent to a CrashRank rule firing now.
func (n *Network) Kill(rank int) error {
	ep, err := n.Endpoint(rank)
	if err != nil {
		return err
	}
	ep.(*Endpoint).kill()
	return nil
}

// Close implements transport.Network.
func (n *Network) Close() error { return n.inner.Close() }

// Endpoint decorates one rank's endpoint with the plan's faults.
type Endpoint struct {
	net   *Network
	inner transport.Endpoint
	rank  int

	killed    atomic.Bool
	killOnce  sync.Once
	sends     atomic.Int64   // total sends by this rank (crash trigger)
	laneSends []atomic.Int64 // per-(to, stream) send numbers (1-based)

	jmu  []sync.Mutex // per-(to, stream) jitter rng locks
	jrng []*rand.Rand // lazily seeded per lane
}

var _ transport.Endpoint = (*Endpoint)(nil)
var _ transport.Aborter = (*Endpoint)(nil)

func newEndpoint(n *Network, inner transport.Endpoint, rank int) *Endpoint {
	lanes := inner.Size() * inner.Streams()
	return &Endpoint{
		net:       n,
		inner:     inner,
		rank:      rank,
		laneSends: make([]atomic.Int64, lanes),
		jmu:       make([]sync.Mutex, lanes),
		jrng:      make([]*rand.Rand, lanes),
	}
}

// Rank implements transport.Endpoint.
func (e *Endpoint) Rank() int { return e.inner.Rank() }

// Size implements transport.Endpoint.
func (e *Endpoint) Size() int { return e.inner.Size() }

// Streams implements transport.Endpoint.
func (e *Endpoint) Streams() int { return e.inner.Streams() }

// kill closes the underlying endpoint (peers observe connection death) and
// fails every subsequent local operation with ErrKilled.
func (e *Endpoint) kill() {
	e.killOnce.Do(func() {
		e.killed.Store(true)
		_ = e.inner.Close()
	})
}

// jitter returns the next deterministic jitter sample for a lane.
func (e *Endpoint) jitter(laneIdx int, max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	e.jmu[laneIdx].Lock()
	defer e.jmu[laneIdx].Unlock()
	if e.jrng[laneIdx] == nil {
		// One independent deterministic stream per directed lane: per-lane
		// send numbering makes the schedule independent of goroutine
		// interleaving across lanes.
		e.jrng[laneIdx] = rand.New(rand.NewSource(e.net.plan.seed ^ int64(e.rank*1_000_003+laneIdx)))
	}
	return time.Duration(e.jrng[laneIdx].Int63n(int64(max)))
}

// Send implements transport.Endpoint, applying the plan's send-side faults in
// order: crash trigger, partition/drop blackholes, truncation, delay.
func (e *Endpoint) Send(to, stream int, data []byte) error {
	if e.killed.Load() {
		bufpool.Put(data)
		return ErrKilled
	}
	plan := e.net.plan
	if spec, ok := plan.crashes[e.rank]; ok && e.sends.Add(1) > spec.afterSends {
		e.kill()
		bufpool.Put(data)
		return ErrKilled
	}
	laneIdx := to*e.inner.Streams() + stream
	var nth int64
	if laneIdx >= 0 && laneIdx < len(e.laneSends) {
		nth = e.laneSends[laneIdx].Add(1)
	}
	if plan.partitions[lane{from: e.rank, to: to, stream: -1}] {
		// Blackhole: the sender believes the frame left; ownership moved to
		// the "transport", which recycles it like a written frame.
		bufpool.Put(data)
		return nil
	}
	for _, k := range []lane{{e.rank, to, stream}, {e.rank, to, -1}} {
		if plan.drops[k][nth] {
			bufpool.Put(data)
			return nil
		}
		if specs, ok := plan.truncs[k]; ok {
			for _, t := range specs {
				if t.nth == nth {
					if cut := len(data) - t.bytes; cut >= 0 {
						data = data[:cut]
					} else {
						data = data[:0]
					}
				}
			}
		}
		if d, ok := plan.delays[k]; ok {
			time.Sleep(d.base + e.jitter(laneIdx, d.jitter))
		}
	}
	return e.inner.Send(to, stream, data)
}

// Recv implements transport.Endpoint, applying the plan's receive-side
// faults (slow-receiver stall, crash).
func (e *Endpoint) Recv(from, stream int) ([]byte, error) {
	if e.killed.Load() {
		return nil, ErrKilled
	}
	if d, ok := e.net.plan.stalls[e.rank]; ok {
		time.Sleep(d)
	}
	data, err := e.inner.Recv(from, stream)
	if err != nil && e.killed.Load() {
		// The kill closed the inner endpoint under us; report the death, not
		// the incidental ErrClosed.
		if data != nil {
			bufpool.Put(data)
		}
		return nil, ErrKilled
	}
	return data, err
}

// Abort implements transport.Aborter by delegation, so the collective abort
// protocol works through the chaos layer. A killed rank cannot abort anyone.
func (e *Endpoint) Abort(to, stream, origin int) error {
	if e.killed.Load() {
		return ErrKilled
	}
	return transport.Abort(e.inner, to, stream, origin)
}

// Close implements transport.Endpoint.
func (e *Endpoint) Close() error { return e.inner.Close() }
