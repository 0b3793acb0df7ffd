package sim

import (
	"slices"
	"time"

	"aiacc/netmodel"
)

// SharedLink models one physical link (e.g. a node's NIC) carrying multiple
// concurrent communication streams under processor sharing with the
// netmodel utilization curve: with n active transfers the link moves
// C·U(n) bytes/s in total, split equally. This reproduces the paper's core
// bandwidth behaviour — one stream gets ≤30% of a TCP link, several streams
// together approach line rate — inside the virtual clock.
type SharedLink struct {
	sim   *Simulator
	link  netmodel.Link
	scale float64 // SetScale's rate factor

	active     []*transfer // in start order, so ties complete in start order
	lastUpdate time.Duration
	generation int64

	// Stats.
	bytesMoved   float64
	busyTime     time.Duration
	weightedUtil float64 // ∫ U(n) dt over busy time, without scale
}

type transfer struct {
	remaining float64 // bytes
	done      func()
}

// NewSharedLink returns a shared link over the given physical model.
func NewSharedLink(s *Simulator, link netmodel.Link) *SharedLink {
	return &SharedLink{sim: s, link: link, scale: 1, lastUpdate: s.Now()}
}

// SetScale multiplies the link's total rate by scale (> 0) from now on, for
// a host that cannot feed the NIC at line rate; 1 restores the full rate.
func (l *SharedLink) SetScale(scale float64) {
	l.settle()
	l.scale = scale
	l.reschedule()
}

// Link returns the physical link model.
func (l *SharedLink) Link() netmodel.Link { return l.link }

// Active returns the number of in-flight transfers.
func (l *SharedLink) Active() int { return len(l.active) }

// Start begins moving `bytes` over the link; done fires (as a simulator
// event) when the transfer completes. A transfer of zero bytes completes
// after one base latency.
func (l *SharedLink) Start(bytes int64, done func()) {
	if bytes <= 0 {
		l.sim.After(l.link.BaseLatency, done)
		return
	}
	l.settle()
	t := &transfer{remaining: float64(bytes), done: done}
	l.active = append(l.active, t)
	l.reschedule()
}

// perStreamRate returns the current bytes/s each active transfer receives.
func (l *SharedLink) perStreamRate() float64 {
	n := len(l.active)
	if n == 0 {
		return 0
	}
	return l.scale * l.link.BytesPerSecond(n) / float64(n)
}

// settle advances all active transfers to the current virtual time at the
// rate that has been in effect since the last update.
func (l *SharedLink) settle() {
	now := l.sim.Now()
	dt := now - l.lastUpdate
	l.lastUpdate = now
	if dt <= 0 || len(l.active) == 0 {
		return
	}
	rate := l.perStreamRate()
	moved := rate * dt.Seconds()
	for _, t := range l.active {
		t.remaining -= moved
		if t.remaining < 0 {
			t.remaining = 0
		}
	}
	l.bytesMoved += moved * float64(len(l.active))
	l.busyTime += dt
	l.weightedUtil += l.link.Utilization(len(l.active)) * dt.Seconds()
}

// reschedule finds the earliest-finishing transfer under the current rate
// and schedules a completion event for it. A generation counter invalidates
// events made stale by later arrivals.
func (l *SharedLink) reschedule() {
	l.generation++
	gen := l.generation
	if len(l.active) == 0 {
		return
	}
	rate := l.perStreamRate()
	var first *transfer
	for _, t := range l.active {
		if first == nil || t.remaining < first.remaining {
			first = t
		}
	}
	eta := time.Duration(first.remaining / rate * float64(time.Second))
	if eta < time.Nanosecond {
		eta = time.Nanosecond
	}
	l.sim.After(eta, func() {
		if gen != l.generation {
			return // a newer arrival rescheduled us
		}
		l.settle()
		// Complete every transfer that has drained (ties complete together,
		// in start order).
		var finished []*transfer
		l.active = slices.DeleteFunc(l.active, func(t *transfer) bool {
			if t.remaining <= 1e-6 {
				finished = append(finished, t)
				return true
			}
			return false
		})
		l.reschedule()
		for _, t := range finished {
			t.done()
		}
	})
}

// LinkStats summarizes a link's activity.
type LinkStats struct {
	// BytesMoved is the total payload carried.
	BytesMoved float64
	// BusyTime is the virtual time with at least one active transfer.
	BusyTime time.Duration
	// MeanUtilization is the time-averaged U(n) over busy time: the
	// fraction of the rate available at each instant that the transfers
	// reach. It excludes SetScale's factor, so while the link is scaled the
	// fraction of line rate achieved is scale·U(n), not U(n).
	MeanUtilization float64
}

// Stats returns a snapshot of the link counters.
func (l *SharedLink) Stats() LinkStats {
	s := LinkStats{BytesMoved: l.bytesMoved, BusyTime: l.busyTime}
	if l.busyTime > 0 {
		s.MeanUtilization = l.weightedUtil / l.busyTime.Seconds()
	}
	return s
}
