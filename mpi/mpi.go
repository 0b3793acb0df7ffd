// Package mpi provides a minimal MPI-like process runtime on top of the
// transport layer. AIACC-Training runs one MPI process per GPU worker
// (paper Fig. 4); here a Comm plays that role: it gives each worker a rank, a
// world size, point-to-point messaging, sub-communicators (e.g. the per-node
// groups used by the hierarchical all-reduce) and a barrier.
//
// Matching semantics follow classic MPI with a single implicit tag per
// stream: messages between a fixed (peer, stream) pair match in FIFO order.
// Collectives built on top issue sends and receives in deterministic
// lockstep on all ranks, which is all FIFO matching requires.
package mpi

import (
	"errors"
	"fmt"
	"sort"

	"aiacc/internal/sendpool"
	"aiacc/transport"
)

// Common errors.
var (
	// ErrNotMember indicates the calling rank is not part of the requested
	// group.
	ErrNotMember = errors.New("mpi: rank not in group")
	// ErrBadGroup indicates an invalid group specification.
	ErrBadGroup = errors.New("mpi: bad group")
)

// Comm is a communicator: an ordered group of ranks that can exchange
// point-to-point messages. Rank numbers used with Send/Recv are
// communicator-relative; the communicator translates them to global
// transport ranks.
type Comm struct {
	ep      transport.Endpoint
	group   []int // global rank of each member, ascending
	rank    int   // my index in group
	senders *sendpool.Pool
}

// NewWorld returns the world communicator containing every rank of the
// endpoint's network. It owns the sender goroutines that collectives over it
// and over every communicator derived from it borrow; Close retires them.
func NewWorld(ep transport.Endpoint) *Comm {
	group := make([]int, ep.Size())
	for i := range group {
		group[i] = i
	}
	return &Comm{ep: ep, group: group, rank: ep.Rank(), senders: new(sendpool.Pool)}
}

// Close retires the sender goroutines of this communicator's world: the
// pool is shared with the world and every communicator derived from it, so
// closing any of them closes it for all. Operations still running finish
// normally and their senders are retired as they return. Close does not
// close the endpoint, which belongs to whoever built the network.
func (c *Comm) Close() { c.senders.Close() }

// Senders returns the sender pool that collectives over c borrow from.
func (c *Comm) Senders() *sendpool.Pool { return c.senders }

// Rank returns the caller's rank within this communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of members.
func (c *Comm) Size() int { return len(c.group) }

// Streams returns the number of independent communication streams.
func (c *Comm) Streams() int { return c.ep.Streams() }

// GlobalRank returns the network-global rank of communicator member r.
func (c *Comm) GlobalRank(r int) (int, error) {
	if r < 0 || r >= len(c.group) {
		return 0, fmt.Errorf("%w: rank %d of %d", ErrBadGroup, r, len(c.group))
	}
	return c.group[r], nil
}

// Send delivers data to communicator member `to` on the given stream.
func (c *Comm) Send(to, stream int, data []byte) error {
	g, err := c.GlobalRank(to)
	if err != nil {
		return err
	}
	return c.ep.Send(g, stream, data)
}

// Recv blocks until a message from communicator member `from` arrives on the
// given stream. The caller owns the returned payload and may reuse or
// overwrite it freely once decoded — the transport never touches a delivered
// buffer again (see transport.Endpoint for the full ownership contract).
func (c *Comm) Recv(from, stream int) ([]byte, error) {
	g, err := c.GlobalRank(from)
	if err != nil {
		return nil, err
	}
	return c.ep.Recv(g, stream)
}

// Abort poisons the directed (to, stream) lane toward communicator member
// `to`, attributing the failure to the *global* rank globalOrigin (DESIGN.md
// §8): the peer's pending and subsequent Recvs on that lane fail with a
// transport.PeerFailedError naming the origin. The origin is global (not
// communicator-relative) because failures cross communicator boundaries — a
// hierarchical all-reduce propagates a leader-ring failure into node groups
// the origin is not a member of. A transport without abort support makes this
// a no-op — the peer then unwinds through its own op deadline instead.
func (c *Comm) Abort(to, stream, globalOrigin int) error {
	g, err := c.GlobalRank(to)
	if err != nil {
		return err
	}
	return transport.Abort(c.ep, g, stream, globalOrigin)
}

// Lender returns c's view of its endpoint's transport.Lender capability,
// with communicator ranks, or nil when the endpoint does not have it.
func (c *Comm) Lender() transport.Lender {
	if _, ok := c.ep.(transport.Lender); !ok {
		return nil
	}
	return lender{c}
}

// lender translates communicator ranks for the endpoint's Lender. It holds
// one pointer, so boxing it in the interface allocates nothing.
type lender struct{ c *Comm }

func (l lender) Lend(from, stream int) ([]byte, error) {
	g, err := l.c.GlobalRank(from)
	if err != nil {
		return nil, err
	}
	return l.c.ep.(transport.Lender).Lend(g, stream)
}

func (l lender) Release(from, stream int) error {
	g, err := l.c.GlobalRank(from)
	if err != nil {
		return err
	}
	return l.c.ep.(transport.Lender).Release(g, stream)
}

func (l lender) Reserve(to, stream, n int) ([]byte, error) {
	g, err := l.c.GlobalRank(to)
	if err != nil {
		return nil, err
	}
	return l.c.ep.(transport.Lender).Reserve(g, stream, n)
}

func (l lender) Commit(to, stream int, publish bool) error {
	g, err := l.c.GlobalRank(to)
	if err != nil {
		return err
	}
	return l.c.ep.(transport.Lender).Commit(g, stream, publish)
}

// Subgroup derives a communicator over the given global ranks. Every member
// of the subgroup must call Subgroup with the same set; the caller must be a
// member. Duplicates are rejected; ordering is normalized ascending so that
// all members agree on relative ranks.
func (c *Comm) Subgroup(globalRanks []int) (*Comm, error) {
	if len(globalRanks) == 0 {
		return nil, fmt.Errorf("%w: empty", ErrBadGroup)
	}
	group := make([]int, len(globalRanks))
	copy(group, globalRanks)
	sort.Ints(group)
	myGlobal := c.group[c.rank]
	me := -1
	for i, g := range group {
		if i > 0 && group[i-1] == g {
			return nil, fmt.Errorf("%w: duplicate rank %d", ErrBadGroup, g)
		}
		if g < 0 || g >= c.ep.Size() {
			return nil, fmt.Errorf("%w: rank %d out of range", ErrBadGroup, g)
		}
		if g == myGlobal {
			me = i
		}
	}
	if me < 0 {
		return nil, fmt.Errorf("%w: rank %d not in %v", ErrNotMember, myGlobal, group)
	}
	return &Comm{ep: c.ep, group: group, rank: me, senders: c.senders}, nil
}

// NodeGroup derives the sub-communicator of ranks sharing the caller's
// computing node, assuming gpusPerNode consecutive global ranks per node.
// Used by the hierarchical (tree) all-reduce.
func (c *Comm) NodeGroup(gpusPerNode int) (*Comm, error) {
	if gpusPerNode <= 0 {
		return nil, fmt.Errorf("%w: gpusPerNode %d", ErrBadGroup, gpusPerNode)
	}
	myGlobal := c.group[c.rank]
	node := myGlobal / gpusPerNode
	lo := node * gpusPerNode
	hi := lo + gpusPerNode
	if hi > c.ep.Size() {
		hi = c.ep.Size()
	}
	ranks := make([]int, 0, hi-lo)
	for g := lo; g < hi; g++ {
		ranks = append(ranks, g)
	}
	return c.Subgroup(ranks)
}

// CrossNodeGroup derives the sub-communicator of the ranks sharing this
// rank's node-local index across all nodes — {j, g+j, 2g+j, ...} for local
// index j — assuming gpusPerNode consecutive global ranks per node. Every
// rank is a member of exactly one cross-node communicator, and its peers all
// live on *other* nodes: this is the inter-host tier of the two-level
// hierarchical all-reduce, where each node-local index reduces its own shard
// across the cluster concurrently with the other indices (the Megatron-style
// schedule), instead of funneling all cross-node traffic through one leader.
func (c *Comm) CrossNodeGroup(gpusPerNode int) (*Comm, error) {
	if gpusPerNode <= 0 {
		return nil, fmt.Errorf("%w: gpusPerNode %d", ErrBadGroup, gpusPerNode)
	}
	local := c.group[c.rank] % gpusPerNode
	var ranks []int
	for g := local; g < c.ep.Size(); g += gpusPerNode {
		ranks = append(ranks, g)
	}
	return c.Subgroup(ranks)
}

// barrierToken is the one-byte payload every barrier round exchanges. It is
// deliberately shared across rounds, ranks and Barrier calls even though Send
// normally transfers exclusive payload ownership: barrier receivers discard
// the payload without reading, retaining, or recycling it, and the token's
// capacity sits below internal/bufpool's minimum size class, so no transport
// (including the TCP data plane, which recycles written payloads into that
// pool) will ever hand the token's storage to another owner.
var barrierToken = []byte{1}

// Barrier blocks until every member of the communicator has entered it, using
// a dissemination barrier: ceil(log2(n)) rounds of paired send/recv. The
// concurrent send of each round runs on a pipe borrowed from the
// communicator's sender pool, one send in flight at a time, rather than a
// fresh goroutine per round.
func (c *Comm) Barrier(stream int) error {
	n := len(c.group)
	if n == 1 {
		return nil
	}
	p := c.senders.Get()
	inflight := 0
	defer func() { c.senders.Put(p, inflight) }()
	for dist := 1; dist < n; dist *= 2 {
		to := (c.rank + dist) % n
		from := (c.rank - dist%n + n) % n
		p.Send(c, to, stream, barrierToken)
		inflight = 1
		if _, err := c.Recv(from, stream); err != nil {
			return fmt.Errorf("barrier recv: %w", err)
		}
		err := p.Wait()
		inflight = 0
		if err != nil {
			return fmt.Errorf("barrier send: %w", err)
		}
	}
	return nil
}
