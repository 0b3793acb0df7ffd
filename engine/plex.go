// Lane multiplexing for preemptive unit scheduling (DESIGN.md §10).
//
// The transports guarantee FIFO frame order per (peer, stream) lane, and the
// collectives rely on it: a ring step's receiver attributes the next frame on
// the lane to the next expected segment. That breaks the moment N all-reduce
// units interleave on one stream — which is exactly what segment-boundary
// preemption does. The plexTable restores per-operation FIFO
// by tagging every data frame with its unit's sequence number (4 bytes
// appended to the wire payload) and demultiplexing received frames by tag on
// the receive side. Tagging is a purely rank-local affair: every rank runs
// the same engine configuration, so both ends of a lane agree frames are
// tagged, but *which* unit preempts *where* never needs cross-rank agreement
// — a frame carries its own identity.
//
// Demultiplexing uses a single-puller protocol per lane: whichever operation
// is blocked on Recv first pulls from the real endpoint, keeps frames
// matching its own tag, and parks mismatched frames on the lane's per-tag
// queues for the operation they belong to. A ring rank sends at most
// plexAhead frames of one operation beyond those it has received, so around
// a ring of n ranks at most plexAhead·n frames of one operation can wait for
// it on its upstream lane, whether it is parked or not yet started; a tag
// queue growing past that is a protocol failure charged to the sending peer.
// A pull error is sticky: it is published to every present and future waiter
// on the lane, so the abort flood and transport teardown propagate to all N
// interleaved operations.
package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"aiacc/internal/bufpool"
	"aiacc/mpi"
	"aiacc/transport"
)

// plexTagBytes is the wire overhead per tagged frame.
const plexTagBytes = 4

// plexAhead bounds how many frames of one ring operation a rank sends beyond
// those it has received: one segment of lookahead within a ring step, plus
// one where the chunk it sends splits into one segment more than the chunk
// it receives. (Each step sends the chunk received on the step before, so
// those surpluses telescope to at most one over the whole operation.)
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

// plexTable tags and demultiplexes the data streams of one communicator.
type plexTable struct {
	c     *mpi.Comm
	size  int
	limit int        // parked frames allowed per tag
	lanes []plexLane // indexed stream*size + from
}

func newPlexTable(c *mpi.Comm, dataStreams int) *plexTable {
	t := &plexTable{c: c, size: c.Size(), limit: plexAhead * c.Size(),
		lanes: make([]plexLane, dataStreams*c.Size())}
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

// send tags data and hands it to the real lane; ownership transfers as usual.
func (t *plexTable) send(to, stream int, data []byte, tag uint32) error {
	return t.c.Send(to, stream, appendTag(data, tag))
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
		payload, err := t.c.Recv(from, stream)
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
			l.err = t.overflow(from, ptag)
		} else {
			l.q[ptag] = append(l.q[ptag], body)
		}
		l.cond.Broadcast()
	}
}

// overflow is the sticky lane error for a tag queue that is already full.
func (t *plexTable) overflow(from int, tag uint32) error {
	rank, err := t.c.GlobalRank(from)
	if err != nil {
		rank = from
	}
	return &transport.PeerFailedError{Rank: rank,
		Cause: fmt.Errorf("%w: tag %d holds %d frames", errPlexOverflow, tag, t.limit)}
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

// plexComm is the collective.Comm view of one unit's frames: sends tag with
// the unit's sequence number, receives demultiplex by it. Rank topology and
// aborts pass through to the real communicator (an abort poisons the whole
// lane — both interleaved units must die with it).
type plexComm struct {
	t   *plexTable
	tag uint32
}

func (p plexComm) Rank() int                     { return p.t.c.Rank() }
func (p plexComm) Size() int                     { return p.t.c.Size() }
func (p plexComm) GlobalRank(r int) (int, error) { return p.t.c.GlobalRank(r) }
func (p plexComm) Abort(to, stream, origin int) error {
	return p.t.c.Abort(to, stream, origin)
}
func (p plexComm) Send(to, stream int, data []byte) error {
	return p.t.send(to, stream, data, p.tag)
}
func (p plexComm) Recv(from, stream int) ([]byte, error) {
	return p.t.recv(from, stream, p.tag)
}
