// Package transport provides the stream-aware point-to-point message layer
// that the collectives are built on. A Network connects a fixed set of ranks;
// each rank holds an Endpoint through which it exchanges framed messages with
// peers. Every message is tagged with a stream id: messages on different
// streams between the same pair of ranks travel over independent channels
// (separate sockets for the TCP transport), which is the substrate AIACC's
// multi-streamed concurrent all-reduce relies on.
//
// Implementations:
//
//   - Mem (NewMem): an in-process network backed by Go channels, used by the
//     live engine, the examples and the test suite.
//   - TCP: a real TCP mesh, one socket per (peer, stream) pair.
//     NewTCPWorker builds one rank's part of a mesh spanning OS processes or
//     machines; NewTCP builds a whole mesh on the loopback interface and runs
//     each rank exactly as a NewTCPWorker process does.
//   - transport/shmnet: shared-memory rings between ranks on one host,
//     in-process or across OS processes over an mmap'd region file.
//   - NewTwoTier: a two-tier network that routes intra-host traffic over one
//     network (e.g. shm) and inter-host traffic over another (e.g. TCP).
//   - transport/chaos: a deterministic fault-injection decorator over any
//     Network.
//
// Beside Endpoint sit optional capabilities an endpoint may implement and a
// caller detects with a type assertion: Aborter (collective abort) and
// Lender (frames lent in place and encoded in place, so a transport whose
// wire is memory skips the copies between its buffers and the caller's).
// Only shmnet implements Lender; wrappers that do not forward it simply
// hide it, and callers fall back to Send and Recv.
package transport

import (
	"errors"
	"fmt"
)

// Common transport errors.
var (
	// ErrClosed is returned by operations on a closed endpoint or network.
	ErrClosed = errors.New("transport: closed")
	// ErrBadRank indicates a rank outside [0, Size).
	ErrBadRank = errors.New("transport: bad rank")
	// ErrBadStream indicates a stream id outside [0, Streams).
	ErrBadStream = errors.New("transport: bad stream")
)

// Endpoint is one rank's handle on the network. Send and Recv are safe for
// concurrent use by multiple goroutines; messages between a fixed
// (peer, stream) pair are delivered in FIFO order, while messages on
// different streams are independent and may interleave arbitrarily.
//
// # Buffer ownership
//
// The transport moves buffers, it never copies them defensively. The contract
// the whole hot path is built on (see DESIGN.md, "Hot-path memory
// discipline"):
//
//   - Send transfers ownership of the payload slice to the transport and
//     onward to the receiver. After Send returns the caller must not read or
//     write the slice again — the in-memory transport hands the very same
//     backing array to the peer's Recv.
//   - Recv transfers ownership of the returned payload to the caller, who may
//     decode it in place, overwrite it, adopt it as a future send buffer (the
//     ring collectives circulate buffers this way), or recycle it into a
//     pool. The transport never touches a delivered buffer again.
//
// A violation is a data race, not a correctness-of-values question: the race
// detector sees it immediately under the memnet transport.
type Endpoint interface {
	// Rank returns this endpoint's rank in [0, Size).
	Rank() int
	// Size returns the number of ranks in the network.
	Size() int
	// Streams returns the number of independent streams per peer pair.
	Streams() int
	// Send delivers data to rank `to` on the given stream, transferring
	// ownership of data to the receiver (see "Buffer ownership" above).
	// Send blocks until the message is accepted by the channel.
	Send(to, stream int, data []byte) error
	// Recv blocks until a message from rank `from` on the given stream is
	// available and returns its payload. The caller owns the payload.
	Recv(from, stream int) ([]byte, error)
	// Close releases the endpoint. Pending and subsequent operations fail
	// with ErrClosed.
	Close() error
}

// ErrBusy is returned by an operation on a lane side that a Lend or a
// Reserve still holds (see Lender).
var ErrBusy = errors.New("transport: lane side lent or reserved")

// Lender is the optional endpoint capability of frames that never pass
// through a caller-owned buffer. It changes the buffer-ownership contract
// only for the frames it touches:
//
//   - Lend blocks like Recv for the next frame from `from` on the stream, but
//     the returned payload stays the transport's: the caller may read it
//     until Release(from, stream), must call Release exactly once, and must
//     not write, keep or recycle it.
//   - Reserve claims room for one n-byte frame to `to` on the stream without
//     waiting. It returns a nil slot and no error when the room is not there
//     now (or never will be); the caller then sends a buffer of its own.
//     Otherwise the caller fills the n-byte slot, which it may also read
//     back, and ends the reservation with Commit(to, stream, publish)
//     exactly once: publish sends the slot as one frame, !publish drops it.
//
// A lend or a reservation holds its lane side: until it ends, a Recv or Lend
// on the same (from, stream), or a Send, Abort or Reserve on the same
// (to, stream), fails with ErrBusy. Ending one on a closed endpoint is still
// required; a committed frame is then dropped with ErrClosed.
type Lender interface {
	Lend(from, stream int) ([]byte, error)
	Release(from, stream int) error
	Reserve(to, stream, n int) ([]byte, error)
	Commit(to, stream int, publish bool) error
}

// Network is a fully-connected set of endpoints.
type Network interface {
	// Size returns the number of ranks.
	Size() int
	// Streams returns the per-pair stream count.
	Streams() int
	// Endpoint returns rank r's endpoint.
	Endpoint(r int) (Endpoint, error)
	// Close shuts down every endpoint.
	Close() error
}

func checkRank(r, size int) error {
	if r < 0 || r >= size {
		return fmt.Errorf("%w: %d not in [0,%d)", ErrBadRank, r, size)
	}
	return nil
}

func checkStream(s, streams int) error {
	if s < 0 || s >= streams {
		return fmt.Errorf("%w: %d not in [0,%d)", ErrBadStream, s, streams)
	}
	return nil
}
