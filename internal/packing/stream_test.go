package packing

import (
	"fmt"
	"testing"
)

// modelSteps is how many wire steps a unit takes in the model. Two steps let
// a unit be displaced between steps, so schedules cover mid-transfer
// preemption as well as preemption before a unit's first frame.
const modelSteps = 2

// modelUnits bounds the units of one model run.
const modelUnits = 5

// modelRank is one rank's view: its dispatch state machine plus bookkeeping
// the checks need.
type modelRank struct {
	s       Stream
	arrived int              // units dispatched so far; dispatch is in Seq order
	started [modelUnits]int  // per unit: how often the machine started it
	retired [modelUnits]bool // per unit
}

// schedModel is the two-rank world of one class assignment. A unit advances
// one step only when it is the stack top on both ranks — the pessimistic
// reading of "only the top transmits": a ring step needs every rank to send
// and receive it.
type schedModel struct {
	class   []int // per unit (Seq = index)
	backlog int   // one class: dispatch waits while this many units queue
	preempt bool  // several classes: dispatch never waits
	ranks   [2]modelRank
	steps   [modelUnits]int // per unit: steps completed, shared by both ranks
}

func newSchedModel(classes int, class []int, backlog int) *schedModel {
	return &schedModel{class: class, backlog: backlog, preempt: classes > 1}
}

func (m *schedModel) clone() *schedModel {
	c := *m
	for r := range c.ranks {
		s := &c.ranks[r].s
		s.queue = append([]Unit(nil), s.queue...)
		s.stack = append([]Unit(nil), s.stack...)
	}
	return &c
}

// key identifies a state for memoization. Per rank it packs the arrival
// count, the stack bottom to top in fixed-width slots and the retired set;
// the queue follows from those (every other arrived unit, in (class, Seq)
// order).
// Then the steps per unit: 62 bits in all.
func (m *schedModel) key() uint64 {
	var k uint64
	for _, rk := range m.ranks {
		k = k<<3 | uint64(rk.arrived)
		k = k<<3 | uint64(len(rk.s.stack))
		for i := 0; i < modelUnits; i++ {
			k <<= 3
			if i < len(rk.s.stack) {
				k |= uint64(rk.s.stack[i].Seq)
			}
		}
		for _, r := range rk.retired {
			k <<= 1
			if r {
				k |= 1
			}
		}
	}
	for _, s := range m.steps {
		k = k<<2 | uint64(s)
	}
	return k
}

// topSeq is rank r's stack top, or -1.
func (m *schedModel) topSeq(r int) int {
	if t, ok := m.ranks[r].s.Top(); ok {
		return t.Seq
	}
	return -1
}

func (m *schedModel) onStack(r, seq int) bool {
	for _, u := range m.ranks[r].s.stack {
		if u.Seq == seq {
			return true
		}
	}
	return false
}

// modelEvent is one transition: a rank dispatches its next unit, a unit
// advances one step on both ranks, or a rank retires a finished unit.
type modelEvent struct {
	kind      byte // 'a'rrive, 's'tep, 'r'etire
	rank, seq int
}

func (ev modelEvent) String() string {
	switch ev.kind {
	case 'a':
		return fmt.Sprintf("r%d arrive u%d", ev.rank, ev.seq)
	case 'r':
		return fmt.Sprintf("r%d retire u%d", ev.rank, ev.seq)
	}
	return fmt.Sprintf("step u%d", ev.seq)
}

func (m *schedModel) events(evs []modelEvent) []modelEvent {
	for r := range m.ranks {
		s := &m.ranks[r].s
		// A one-class dispatch waits while the queue is full, as the
		// engine's does.
		full := !m.preempt && s.Queued() >= m.backlog
		if seq := m.ranks[r].arrived; seq < len(m.class) && !full {
			evs = append(evs, modelEvent{'a', r, seq})
		}
		for seq := range m.class {
			if m.steps[seq] == modelSteps && !m.ranks[r].retired[seq] && m.onStack(r, seq) {
				evs = append(evs, modelEvent{'r', r, seq})
			}
		}
	}
	if seq := m.topSeq(0); seq >= 0 && seq == m.topSeq(1) && m.steps[seq] < modelSteps {
		evs = append(evs, modelEvent{'s', -1, seq})
	}
	return evs
}

func (m *schedModel) apply(ev modelEvent) {
	switch ev.kind {
	case 'a':
		rk := &m.ranks[ev.rank]
		if rk.s.Arrive(Unit{Seq: ev.seq, Priority: m.class[ev.seq]}) == Start {
			rk.started[ev.seq]++
		}
		rk.arrived++
	case 'r':
		rk := &m.ranks[ev.rank]
		next, act := rk.s.Retire(ev.seq)
		rk.retired[ev.seq] = true
		if act == Start {
			rk.started[next.Seq]++
		}
	case 's':
		m.steps[ev.seq]++
	}
}

// check asserts the per-state invariants on each rank: every unit is in
// exactly one place and started at most once, the queue is in (class, Seq)
// order, the stack is strictly more urgent bottom to top, and its top is the
// (class, Seq) minimum of every dispatched, unretired unit.
func (m *schedModel) check() error {
	for r, rk := range m.ranks {
		var where [modelUnits]int
		for _, u := range rk.s.stack {
			where[u.Seq]++
		}
		top, ok := rk.s.Top()
		for i, u := range rk.s.queue {
			switch {
			case i > 0 && !lessUrgent(u, rk.s.queue[i-1]):
				return fmt.Errorf("rank %d: queue out of (class, Seq) order: %v", r, rk.s.queue)
			case !ok:
				return fmt.Errorf("rank %d: u%d queued on an idle stream", r, u.Seq)
			case !lessUrgent(u, top):
				return fmt.Errorf("rank %d: queued u%d more urgent than top u%d", r, u.Seq, top.Seq)
			}
			where[u.Seq]++
		}
		for seq := range m.class {
			if rk.retired[seq] {
				where[seq]++
			}
			want := 0
			if seq < rk.arrived {
				want = 1
			}
			if where[seq] != want {
				return fmt.Errorf("rank %d: u%d is in %d places, want %d", r, seq, where[seq], want)
			}
			if rk.started[seq] > 1 {
				return fmt.Errorf("rank %d: u%d started %d times", r, seq, rk.started[seq])
			}
		}
		for i := 1; i < len(rk.s.stack); i++ {
			if rk.s.stack[i].Priority >= rk.s.stack[i-1].Priority {
				return fmt.Errorf("rank %d: stack not strictly more urgent upward: %v", r, rk.s.stack)
			}
		}
	}
	return nil
}

// lessUrgent reports whether a follows b in (class, Seq) order.
func lessUrgent(a, b Unit) bool {
	return a.Priority > b.Priority || a.Priority == b.Priority && a.Seq > b.Seq
}

// done reports whether every unit retired exactly once on both ranks.
func (m *schedModel) done() bool {
	for _, rk := range m.ranks {
		for seq := range m.class {
			if !rk.retired[seq] || rk.started[seq] != 1 {
				return false
			}
		}
	}
	return true
}

// explore visits every reachable state depth-first. Every event advances an
// arrival, step or retirement count, so the state graph is acyclic and the
// search ends. It returns the first violation with the schedule leading to
// it.
func (m *schedModel) explore(seen map[uint64]bool, trail []modelEvent) error {
	k := m.key()
	if seen[k] {
		return nil
	}
	seen[k] = true
	if err := m.check(); err != nil {
		return fmt.Errorf("%w\nschedule: %v", err, trail)
	}
	var buf [2*modelUnits + 3]modelEvent
	evs := m.events(buf[:0])
	if len(evs) == 0 && !m.done() {
		return fmt.Errorf("no progress: rank tops u%d/u%d, steps %v\nschedule: %v",
			m.topSeq(0), m.topSeq(1), m.steps[:len(m.class)], trail)
	}
	for _, ev := range evs {
		n := m.clone()
		n.apply(ev)
		if err := n.explore(seen, append(trail, ev)); err != nil {
			return err
		}
	}
	return nil
}

// TestSchedModel checks the dispatch state machine across two ranks
// exhaustively: every class assignment of up to 5 units over up to 4
// classes, and every interleaving of the two ranks' arrivals, wire steps and
// retirements. Each rank dispatches in Seq order, as the engine does; only
// the timing differs. Every schedule must make progress, and every unit must
// start and retire exactly once on each rank.
//
// With one class the engine's dispatch waits while a stream queues a
// backlog of units; the test runs every backlog from 1 to one that never
// fills, so it holds whatever bound the engine picks.
//
// The machine only compares classes, so assignments that order the units
// alike behave alike: the test runs one per order, with the classes in use
// numbered densely from 0 (units classed {0, 2, 2} behave as {0, 1, 1}).
func TestSchedModel(t *testing.T) {
	const maxClasses = 4
	assignments, states := 0, 0
	for units := 1; units <= modelUnits; units++ {
		class := make([]int, units)
		for {
			if classes, dense := denseClasses(class); dense {
				backlogs := modelUnits // 1 to never full
				if classes > 1 {
					backlogs = 1 // preemptive dispatch never waits
				}
				for backlog := 1; backlog <= backlogs; backlog++ {
					seen := make(map[uint64]bool)
					if err := newSchedModel(classes, class, backlog).explore(seen, nil); err != nil {
						t.Fatalf("unit classes %v, backlog %d: %v", class, backlog, err)
					}
					states += len(seen)
				}
				assignments++
			}
			// Next assignment, odometer style.
			i := 0
			for ; i < units; i++ {
				if class[i]++; class[i] < maxClasses {
					break
				}
				class[i] = 0
			}
			if i == units {
				break
			}
		}
	}
	t.Logf("%d class orders, %d states explored", assignments, states)
}

// denseClasses reports the number of classes an assignment uses and whether
// they are exactly 0..n-1.
func denseClasses(class []int) (int, bool) {
	var used [8]bool
	n := 0
	for _, c := range class {
		used[c] = true
		n = max(n, c+1)
	}
	for c := 0; c < n; c++ {
		if !used[c] {
			return n, false
		}
	}
	return n, true
}
