package packing

import "slices"

// Action is a Stream's verdict on an event.
type Action int

const (
	// Park: nothing new runs — the arrival queued, a parked unit retired
	// without changing the top, or the stream went idle.
	Park Action = iota
	// Start: a unit became the stack top and needs to run.
	Start
	// Resume: the top retired and the parked unit beneath it runs again.
	Resume
)

// Stream is one communication stream's dispatch decision state, shared by
// the live engine and the cluster simulator (DESIGN.md §10). It is a pure
// state machine — Arrive / Retire → Start | Resume | Park — whose caller
// serializes the calls.
//
// It holds one queue in (Priority, Seq) order and a stack of started units,
// of which only the top transmits. An arrival strictly more urgent than the
// top starts at once; any other arrival queues behind every unit of its
// priority. When the top retires, the queue head starts if the stack is
// empty or the head is strictly more urgent than the new top; otherwise the
// new top resumes. Started units are strictly more urgent bottom to top.
//
// Within one priority a Stream is FIFO by arrival, and that is the one
// precondition a single class needs: units run in the order they arrive.
// The engine's cross-rank argument needs more — every rank's units arrive in
// Seq order, so a queued unit of the top's priority always has a higher Seq
// and the top is the (Priority, Seq) minimum on every rank. Engines with a
// static plan fire units in gradient production order instead, which is
// not Seq order; they run one class, where arrival order is all that counts.
type Stream struct {
	queue []Unit // queued, in (Priority, arrival) order
	stack []Unit // started and unretired; strictly more urgent bottom to top
}

// Top returns the unit allowed to transmit.
func (s *Stream) Top() (Unit, bool) {
	if n := len(s.stack); n > 0 {
		return s.stack[n-1], true
	}
	return Unit{}, false
}

// Queued returns the number of queued (not started) units.
func (s *Stream) Queued() int { return len(s.queue) }

// Arrive records a dispatched unit. It returns Start when u became the top,
// Park when it queued.
func (s *Stream) Arrive(u Unit) Action {
	if top, ok := s.Top(); !ok || u.Priority < top.Priority {
		s.stack = append(s.stack, u)
		return Start
	}
	i := len(s.queue)
	for i > 0 && s.queue[i-1].Priority > u.Priority {
		i--
	}
	s.queue = slices.Insert(s.queue, i, u)
	return Park
}

// Retire removes the finished started unit seq. A parked unit may finish
// without reaching another gate (its last segments were already on the
// wire), so seq need not be the top; the top then stays. When the top
// retires, Retire returns Start with the queued unit that became the new
// top, Resume when the unit beneath runs again, or Park when the stream is
// idle.
func (s *Stream) Retire(seq int) (Unit, Action) {
	i := len(s.stack) - 1
	for i >= 0 && s.stack[i].Seq != seq {
		i--
	}
	if i < 0 {
		panic("packing: retiring a unit that never started")
	}
	wasTop := i == len(s.stack)-1
	copy(s.stack[i:], s.stack[i+1:])
	s.stack[len(s.stack)-1] = Unit{}
	s.stack = s.stack[:len(s.stack)-1]
	if !wasTop {
		return Unit{}, Park
	}
	top, ok := s.Top()
	if len(s.queue) > 0 && (!ok || s.queue[0].Priority < top.Priority) {
		u := s.queue[0]
		s.queue[0] = Unit{}
		s.queue = s.queue[1:]
		s.stack = append(s.stack, u)
		return u, Start
	}
	if ok {
		return Unit{}, Resume
	}
	return Unit{}, Park
}
