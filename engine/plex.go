// Lane multiplexing for preemptive unit scheduling (DESIGN.md §10).
//
// The transports guarantee FIFO frame order per (peer, stream) lane, and the
// collectives rely on it: a ring step's receiver attributes the next frame on
// the lane to the next expected segment. That breaks the moment N all-reduce
// units interleave on one stream — which is exactly what segment-boundary
// preemption does. The plexTable restores per-operation FIFO by tagging
// every data frame with its unit's sequence number (4 bytes appended to the
// wire payload) and demultiplexing received frames by tag on the receive
// side. Tagging is a purely rank-local affair: every rank runs the same
// engine configuration, so both ends of a lane agree frames are tagged, but
// *which* unit preempts *where* never needs cross-rank agreement — a frame
// carries its own identity.
//
// The tagger sits under the communicator: each unit runs on the engine's
// communicator over a plexEndpoint (mpi.Comm.Over), a view of the real
// endpoint that tags and demultiplexes by the unit's tag. Lanes are indexed
// by global rank, so the sub-communicators the two-level schedule derives
// (NodeGroup, CrossNodeGroup) tag through the same view and the same lanes.
//
// Demultiplexing uses a single-puller protocol per lane: whichever operation
// is blocked on Recv first pulls from the real endpoint, keeps frames
// matching its own tag, and parks mismatched frames on the lane's per-tag
// queues for the operation they belong to. A pull error is sticky: it is
// published to every present and future waiter on the lane, so the abort
// flood and transport teardown propagate to all N interleaved operations.
//
// A tag queue growing past limit = plexAhead·n frames (n the engine's
// communicator size) is a protocol failure charged to the sending peer.
// Frames of one tag on one lane come from ring operations over one ring,
// which each rank runs in order on one goroutine. A frame waits on a lane
// only if it was sent and not yet received, so the frames waiting on all the
// ring's lanes together number the sum, over its members, of the frames each
// has sent beyond those it has received; one lane holds at most that sum.
//   - Flat ring, one operation: a rank sends one segment of lookahead within
//     a ring step, plus one where the chunk it sends splits into one segment
//     more than the chunk it receives (each step sends the chunk received on
//     the step before, so those surpluses telescope to at most one over the
//     operation). So a rank is at most plexAhead ahead, and at most
//     plexAhead·n frames wait.
//   - Two-level schedule: one tag covers RS(b0), RS(b1), AG(b0) and AG(b1)
//     on a node lane, X(b0) and X(b1) on a cross-node lane (collective's
//     twoLevelAllReduce). A finished reduce-scatter or all-gather leaves only
//     the rank where its chunk sizes step down a segment one frame ahead;
//     along those sequences a rank is at most two ahead between operations
//     and three within one. A parked member stalls its whole sub-ring, and a
//     sub-ring holds at most n/2 ranks (the schedule runs only with two or
//     more nodes of two or more ranks), so at most 3·n/2 ≤ limit frames wait.
package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"aiacc/internal/bufpool"
	"aiacc/transport"
)

// plexTagBytes is the wire overhead per tagged frame.
const plexTagBytes = 4

// plexAhead bounds how many frames of one flat ring operation a rank sends
// beyond those it has received (see the header).
const plexAhead = 2

// errPlexOverflow is the cause of the peer failure reported when a peer's
// frames for one operation exceed the ring protocol's bound.
var errPlexOverflow = errors.New("engine: plex tag queue overflow")

// plexLane demultiplexes one (from, stream) receive lane by unit tag.
type plexLane struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pulling bool
	err     error // sticky: first pull or frame-format error
	q       map[uint32][][]byte
}

// plexTable tags and demultiplexes the data streams of one endpoint.
type plexTable struct {
	ep    transport.Endpoint
	size  int        // ranks of the endpoint's network
	limit int        // parked frames allowed per tag
	lanes []plexLane // indexed stream*size + global rank
}

// newPlexTable builds the demultiplexer of ep's first dataStreams streams
// for an engine whose communicator has members ranks.
func newPlexTable(ep transport.Endpoint, dataStreams, members int) *plexTable {
	t := &plexTable{ep: ep, size: ep.Size(), limit: plexAhead * members,
		lanes: make([]plexLane, dataStreams*ep.Size())}
	for i := range t.lanes {
		l := &t.lanes[i]
		l.cond = sync.NewCond(&l.mu)
		l.q = make(map[uint32][][]byte)
	}
	return t
}

func (t *plexTable) lane(from, stream int) *plexLane { return &t.lanes[stream*t.size+from] }

// appendTag suffixes the unit tag to a wire buffer. The buffer almost always
// has spare capacity (pool size classes are powers of two); when it does not,
// the payload moves to a larger pooled buffer and the old one is recycled, so
// the buffer-ownership ledger stays balanced.
func appendTag(b []byte, tag uint32) []byte {
	if cap(b)-len(b) < plexTagBytes {
		nb := bufpool.Get(len(b) + plexTagBytes)
		copy(nb, b)
		bufpool.Put(b)
		b = nb
	} else {
		b = b[:len(b)+plexTagBytes]
	}
	binary.LittleEndian.PutUint32(b[len(b)-plexTagBytes:], tag)
	return b
}

// splitTag strips the tag suffix, returning the tag and the payload view
// (same backing buffer, so recycling the view recycles the frame).
func splitTag(b []byte) (uint32, []byte, error) {
	if len(b) < plexTagBytes {
		return 0, b, fmt.Errorf("engine: plex frame too short (%d bytes)", len(b))
	}
	n := len(b) - plexTagBytes
	return binary.LittleEndian.Uint32(b[n:]), b[:n], nil
}

// recv returns the next frame tagged tag from the (from, stream) lane.
func (t *plexTable) recv(from, stream int, tag uint32) ([]byte, error) {
	l := t.lane(from, stream)
	l.mu.Lock()
	for {
		// Frames queued for this tag drain before a sticky error surfaces:
		// they arrived intact before the lane died.
		if bufs := l.q[tag]; len(bufs) > 0 {
			b := bufs[0]
			bufs[0] = nil
			l.q[tag] = bufs[1:]
			l.mu.Unlock()
			return b, nil
		}
		if l.err != nil {
			err := l.err
			l.mu.Unlock()
			return nil, err
		}
		if l.pulling {
			l.cond.Wait()
			continue
		}
		l.pulling = true
		l.mu.Unlock()
		payload, err := t.ep.Recv(from, stream)
		l.mu.Lock()
		l.pulling = false
		if err != nil {
			l.err = err
			l.cond.Broadcast()
			continue
		}
		ptag, body, err := splitTag(payload)
		if err != nil {
			bufpool.Put(payload)
			l.err = err
			l.cond.Broadcast()
			continue
		}
		if ptag == tag {
			// Another waiter may need to take over pulling.
			l.cond.Broadcast()
			l.mu.Unlock()
			return body, nil
		}
		if len(l.q[ptag]) == t.limit {
			bufpool.Put(body)
			l.err = &transport.PeerFailedError{Rank: from,
				Cause: fmt.Errorf("%w: tag %d holds %d frames", errPlexOverflow, ptag, t.limit)}
		} else {
			l.q[ptag] = append(l.q[ptag], body)
		}
		l.cond.Broadcast()
	}
}

// drain recycles every frame still parked on the per-tag queues — the
// error-path remainder of operations that unwound before consuming them.
func (t *plexTable) drain() {
	for i := range t.lanes {
		l := &t.lanes[i]
		l.mu.Lock()
		for tag, bufs := range l.q {
			for _, b := range bufs {
				bufpool.Put(b)
			}
			delete(l.q, tag)
		}
		l.mu.Unlock()
	}
}

// plexEndpoint is one unit's view of the real endpoint: sends tag with the
// unit's sequence number, receives demultiplex by it, ranks are global.
// Aborts pass through (an abort poisons the whole lane — every interleaved
// unit must die with it), and Close closes nothing: the real endpoint
// belongs to whoever built the network. It has no transport.Lender, so a
// communicator over it sends and receives owned buffers.
type plexEndpoint struct {
	t   *plexTable
	tag uint32
}

func (p plexEndpoint) Rank() int    { return p.t.ep.Rank() }
func (p plexEndpoint) Size() int    { return p.t.size }
func (p plexEndpoint) Streams() int { return p.t.ep.Streams() }
func (p plexEndpoint) Close() error { return nil }

func (p plexEndpoint) Send(to, stream int, data []byte) error {
	return p.t.ep.Send(to, stream, appendTag(data, p.tag))
}

func (p plexEndpoint) Recv(from, stream int) ([]byte, error) {
	return p.t.recv(from, stream, p.tag)
}

func (p plexEndpoint) Abort(to, stream, origin int) error {
	return transport.Abort(p.t.ep, to, stream, origin)
}
