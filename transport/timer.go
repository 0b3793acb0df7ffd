package transport

import (
	"sync/atomic"
	"time"
)

// timerSlot holds one lane side's reusable deadline timer, so a blocking
// operation arms a timer without allocating one (the shared-memory
// transport keeps one per lane side the same way). Operations on a lane
// side normally run one at a time; one that finds the slot taken by a
// concurrent operation makes its own timer, which then joins the slot.
type timerSlot struct{ t atomic.Pointer[time.Timer] }

// arm returns a timer that fires after d, the slot's own when it is free.
// The caller ends its use with disarm.
func (s *timerSlot) arm(d time.Duration) *time.Timer {
	if t := s.t.Swap(nil); t != nil {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

// disarm stops t and puts it back in the slot. Since Go 1.23 a stopped
// timer delivers no stale tick after its next Reset, fired or not.
func (s *timerSlot) disarm(t *time.Timer) {
	t.Stop()
	s.t.Store(t)
}
