package collective

import (
	"aiacc/internal/sendpool"
	"aiacc/transport"
)

// Comm is the communicator surface the ring collectives run over. *mpi.Comm
// implements it directly; the engine's priority scheduler implements it with
// a tagging multiplexer (engine.plexComm) so a preempting high-priority unit
// and the preempted unit can interleave frames on one (peer, stream) lane
// while each collective still sees a plain FIFO channel per peer.
//
// The contract matches mpi.Comm exactly: Send transfers payload ownership to
// the receiver, Recv returns an owned pooled buffer, per-(peer, stream) frame
// order is FIFO as observed through this interface, and Abort poisons the
// peer's lane with the failing global rank.
type Comm interface {
	// Rank returns this member's rank within the communicator.
	Rank() int
	// Size returns the number of members.
	Size() int
	// GlobalRank translates a communicator rank to the world rank.
	GlobalRank(r int) (int, error)
	// Send delivers data to the member on the stream, transferring ownership.
	Send(to, stream int, data []byte) error
	// Recv blocks for the next payload from the member on the stream.
	Recv(from, stream int) ([]byte, error)
	// Abort poisons the lane to the member, attributing failure to the
	// world-rank origin.
	Abort(to, stream, origin int) error
	// Senders returns the pool the operation borrows its sender from.
	Senders() *sendpool.Pool
}

// lendingComm is the optional Comm capability of in-place frames: *mpi.Comm
// has it, returning nil when its endpoint lacks transport.Lender. The ring
// checks for it once per operation; a Comm without it, such as the engine's
// tagging multiplexer, runs on Send and Recv alone.
type lendingComm interface {
	Lender() transport.Lender
}
