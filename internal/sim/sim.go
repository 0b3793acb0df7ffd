// Package sim is a deterministic discrete-event simulation kernel with a
// virtual clock. The cluster simulator (package cluster) uses it to replay
// the paper's 256-GPU experiments in milliseconds of wall time: events are
// closures scheduled at virtual instants; Run executes them in time order
// (ties broken by scheduling order, making runs fully reproducible).
package sim

import (
	"errors"
	"time"
)

// ErrPastEvent indicates an event scheduled before the current virtual time.
var ErrPastEvent = errors.New("sim: event scheduled in the past")

type event struct {
	at  time.Duration
	seq int64
	fn  func()
}

// eventBefore orders events by virtual time, ties broken by scheduling order.
func eventBefore(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Simulator owns a virtual clock and an event queue. It is not safe for
// concurrent use: all events execute on the caller's goroutine inside Run.
type Simulator struct {
	now    time.Duration
	queue  minHeap[event]
	seq    int64
	events int64
}

// New returns a simulator at virtual time zero.
func New() *Simulator {
	return &Simulator{queue: minHeap[event]{less: eventBefore}}
}

// Now returns the current virtual time.
func (s *Simulator) Now() time.Duration { return s.now }

// At schedules fn at absolute virtual time t.
func (s *Simulator) At(t time.Duration, fn func()) error {
	if t < s.now {
		return ErrPastEvent
	}
	s.seq++
	s.queue.Push(event{at: t, seq: s.seq, fn: fn})
	return nil
}

// After schedules fn d after the current virtual time. Negative delays are
// clamped to zero.
func (s *Simulator) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	// The delay is relative to now, so it can never land in the past.
	_ = s.At(s.now+d, fn)
}

// Run executes events in time order until the queue is empty and returns the
// number executed. Event handlers may schedule further events.
func (s *Simulator) Run() int64 {
	start := s.events
	for s.queue.Len() > 0 {
		e := s.queue.Pop()
		s.now = e.at
		s.events++
		e.fn()
	}
	return s.events - start
}

// RunUntil executes events with timestamps <= deadline and advances the
// clock to the deadline. Remaining events stay queued.
func (s *Simulator) RunUntil(deadline time.Duration) int64 {
	start := s.events
	for s.queue.Len() > 0 && s.queue.Peek().at <= deadline {
		e := s.queue.Pop()
		s.now = e.at
		s.events++
		e.fn()
	}
	if s.now < deadline {
		s.now = deadline
	}
	return s.events - start
}

// Pending returns the number of queued events.
func (s *Simulator) Pending() int { return s.queue.Len() }
