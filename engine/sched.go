// Unit dispatch (DESIGN.md §10): the engine's one dispatcher.
//
// Every unit runs on stream Seq mod Streams. Ranks pack identical units in
// identical Seq order, so they agree which units share a stream without
// communicating. Within a stream units are ordered by (Priority, Seq), 0 the
// most urgent priority; without preemption dispatch clears every unit's
// Priority, so the order is Seq order. Only dispatch *time* is rank-local,
// and the scheduler keeps every rank's ring messages matched whatever the
// timing by holding one invariant:
//
//	On every rank, the most urgent dispatched-and-unretired unit of a stream
//	always has a goroutine that is not gated.
//
// All ranks agree on (Priority, Seq), so once every rank has dispatched the
// globally most urgent unretired unit, it progresses everywhere. Under
// preemption dispatch never waits for a retirement (Arrive only queues;
// readiness rounds run on the sync stream), so induction over the finite
// unit set gives liveness.
//
// The mechanism is exactly that invariant, and it is packing.Stream, the
// state machine the cluster simulator runs too: per stream, one queue in
// (Priority, Seq) order and a stack of started units, of which only the top
// transmits. An arrival strictly more urgent than the top starts at once on
// its own goroutine — at once, because the unit it displaces may be blocked
// in a receive from a peer that is already running the newcomer. Started
// units are strictly more urgent bottom to top, and units arrive in Seq
// order, so a queued unit of the top's priority always has a higher Seq:
// the top is the (Priority, Seq) minimum, and a stream runs at most one
// goroutine per distinct priority among its in-flight units.
//
// With one class (PriorityDepth 0 or 1, or one registered priority) the
// stack holds at most one unit and the queue is FIFO in Seq order —
// Algorithm 1's multi-stream pool — and units run on the plain communicator
// with no frame tag and no yield hook. As in the pool, dispatch then waits
// while the stream already queues streamBacklog units. Under preemption
// (PriorityDepth 2), each unit runs on the communicator over its own view of
// the frame tagger (plex.go), so started units interleave over the stream's
// lanes, flat ring and two-level schedule alike; every unit but the top
// parks at its next wire-segment boundary (collective.WithYield), in each
// tier of the two-level schedule, and later resumes from its completed
// segments, with nothing re-sent or re-encoded.
//
// On failure or close every gate opens, and parked units run into their
// poisoned lanes and unwind.
package engine

import (
	"sync"

	"aiacc/internal/packing"
)

// streamBacklog is how many units a one-class stream queues behind its
// running unit before dispatch waits for room. The wait holds the engine
// loop back, so a readiness round agrees more gradients at once: on 162
// small gradients over TCP (4 ranks, 2 cores) an unbounded queue ran 7.0
// rounds per iteration instead of 5.8, and the next-forward stall rose
// about 12 %. The wait is safe with one class alone: every rank dispatches
// in Seq order, so the oldest unretired unit is dispatched everywhere and
// heads its stream's queue, while the unit a preemptive stream waits for
// could need a peer whose own dispatch is waiting.
const streamBacklog = 2

// streamSched is one stream's dispatcher: the shared state machine, which
// streamSched.mu serializes, plus the gate that parks every started unit but
// the top.
type streamSched struct {
	mu   sync.Mutex
	cond *sync.Cond // parked units wait for the top to change, dispatch for queue room
	packing.Stream
	qBytes int64 // queued payload bytes
	open   bool  // failure/close: all gates released
}

func newStreamSched() *streamSched {
	st := &streamSched{}
	st.cond = sync.NewCond(&st.mu)
	return st
}

// dispatch hands one unit to its stream's dispatcher; a unit that must start
// gets its own goroutine. Only a full one-class queue makes it wait.
func (e *Engine) dispatch(u packing.Unit) {
	if !e.preempt {
		u.Priority = 0 // one class: packing has used the priority already
	}
	streamID := u.Seq % e.cfg.Streams
	st := e.sched[streamID]

	e.schedMu.Lock()
	e.schedOut++
	e.schedMu.Unlock()

	st.mu.Lock()
	for !e.preempt && st.Queued() >= streamBacklog && !st.open {
		st.cond.Wait()
	}
	act := st.Arrive(u)
	if act == packing.Park {
		st.qBytes += u.Bytes()
		e.met.observeQueue(streamID, st.Queued(), st.qBytes)
	}
	st.mu.Unlock()
	if act == packing.Start {
		go e.schedRun(st, u)
	}

	e.mu.Lock()
	e.stats.Units++
	e.stats.BytesReduced += u.Bytes()
	e.mu.Unlock()
	e.met.units.Inc()
	e.met.bytes.Add(u.Bytes())
	e.met.wireBytes.Add(u.WireBytes(e.cfg.Codec))
}

// schedRun is the goroutine of one stack entry: it runs u and, whenever u's
// retirement starts a queued unit, runs that unit next.
func (e *Engine) schedRun(st *streamSched, u packing.Unit) {
	for {
		err := e.runUnit(st, u)
		st.mu.Lock()
		next, act := st.Retire(u.Seq)
		if act == packing.Start {
			st.qBytes -= next.Bytes()
			e.met.observeQueue(next.Seq%e.cfg.Streams, st.Queued(), st.qBytes)
		}
		if act != packing.Park {
			// The top changed: a parked unit may resume, or a waiting
			// one-class dispatch may have queue room.
			st.cond.Broadcast()
		}
		st.mu.Unlock()
		e.unitDone(err)
		if act != packing.Start {
			return
		}
		u = next
	}
}

// runUnit runs one unit's all-reduce. Under preemption its frames are
// tagged through the multiplexer and a gate at every segment boundary parks
// it while it is not the top of its stream's stack. The two-level schedule
// calls the gate from two goroutines, its intra-node caller and its
// cross-node worker, so the gate's bookkeeping lives under st.mu.
func (e *Engine) runUnit(st *streamSched, u packing.Unit) error {
	streamID := u.Seq % e.cfg.Streams
	if !e.preempt {
		return e.reduceUnit(streamID, u, e.comm, nil)
	}
	var (
		preempted bool // under st.mu, as are the counts
		preempts  int64
		resumed   int64
	)
	yield := func() {
		st.mu.Lock()
		for !st.open {
			if top, _ := st.Top(); top.Seq == u.Seq {
				break
			}
			if !preempted {
				preempted = true
				preempts++
			}
			st.cond.Wait()
		}
		if preempted {
			resumed++ // a segment completed by a previously parked unit
		}
		st.mu.Unlock()
	}
	err := e.reduceUnit(streamID, u, e.comm.Over(plexEndpoint{t: e.plex, tag: uint32(u.Seq)}), yield)
	st.mu.Lock()
	if preempts > 0 {
		e.met.preemptions.Add(preempts)
		e.met.resumedSegs.Add(resumed)
	}
	st.mu.Unlock()
	return err
}

// unitDone retires one unit, recording its error and waking the iteration
// tail wait. The first failure opens every gate: parked units must run into
// their poisoned lanes and unwind rather than sleep forever.
func (e *Engine) unitDone(err error) {
	e.schedMu.Lock()
	if err != nil && e.schedErr == nil {
		e.schedErr = err
	}
	e.schedOut--
	e.schedMu.Unlock()
	e.schedCond.Broadcast()
	if err != nil {
		e.schedOpen()
	}
}

// schedOpen releases every stream's gate permanently (failure or close —
// both are terminal for the engine loop).
func (e *Engine) schedOpen() {
	for _, st := range e.sched {
		st.mu.Lock()
		st.open = true
		st.cond.Broadcast()
		st.mu.Unlock()
	}
}

// schedWait blocks until every dispatched unit retired and returns the first
// unit error.
func (e *Engine) schedWait() error {
	e.schedMu.Lock()
	defer e.schedMu.Unlock()
	for e.schedOut > 0 && !e.schedStop {
		e.schedCond.Wait()
	}
	if e.schedErr != nil {
		return e.schedErr
	}
	if e.schedStop && e.schedOut > 0 {
		return ErrClosed
	}
	return nil
}

// schedClose is the Close-path teardown: release the tail wait and every
// gate, let the loop exit, wait for in-flight units to retire (they fail fast
// once the transport goes away), and recycle any frames still parked on the
// demultiplexer queues.
func (e *Engine) schedClose() {
	e.schedMu.Lock()
	e.schedStop = true
	e.schedMu.Unlock()
	e.schedCond.Broadcast()
	e.schedOpen()
	<-e.loopDone
	e.schedMu.Lock()
	for e.schedOut > 0 {
		e.schedCond.Wait()
	}
	e.schedMu.Unlock()
	if e.plex != nil {
		e.plex.drain()
	}
}
