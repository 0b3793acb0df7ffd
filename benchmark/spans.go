package main

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around its own calls
// into a layer. Times are nanoseconds since the recorder's base.
type span struct {
	name       string
	iter       int32 // iteration id, 0 for probe spans
	parent     int32 // index in the same lane, -1 for a root
	start, end int64
}

// probeLane holds the spans of the probe phase; lanes 0..ranks-1 hold each
// rank's iteration spans.
const probeLane = ranks

// maxSpansPerLane bounds memory; spans beyond it are counted, not kept.
const maxSpansPerLane = 1 << 20

// recorder keeps spans in memory until the run ends.
type recorder struct {
	base  time.Time
	lanes [ranks + 1]lane
}

type lane struct {
	mu      sync.Mutex
	spans   []span
	current int32 // the open iteration span
	dropped int
}

func newRecorder() *recorder {
	r := &recorder{base: time.Now()}
	for i := range r.lanes {
		r.lanes[i].spans = make([]span, 0, 1<<14)
		r.lanes[i].current = -1
	}
	return r
}

func (r *recorder) at(t time.Time) int64 { return int64(t.Sub(r.base)) }

// add records a finished span and returns its index, -1 if it was dropped.
func (r *recorder) add(laneID int, s span) int32 {
	l := &r.lanes[laneID]
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.spans) >= maxSpansPerLane {
		l.dropped++
		return -1
	}
	l.spans = append(l.spans, s)
	return int32(len(l.spans) - 1)
}

// begin records an open iteration span, which later spans of the lane name
// as their parent through current; finish closes it.
func (r *recorder) begin(laneID int, s span) int32 {
	idx := r.add(laneID, s)
	l := &r.lanes[laneID]
	l.mu.Lock()
	l.current = idx
	l.mu.Unlock()
	return idx
}

func (r *recorder) finish(laneID int, idx int32, end int64) {
	l := &r.lanes[laneID]
	l.mu.Lock()
	if idx >= 0 {
		l.spans[idx].end = end
	}
	l.current = -1
	l.mu.Unlock()
}

func (r *recorder) current(laneID int) int32 {
	l := &r.lanes[laneID]
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.current
}

// timed records fn as a probe span.
func (r *recorder) timed(name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	r.add(probeLane, span{name: name, parent: -1, start: r.at(start), end: r.at(end)})
	return end.Sub(start)
}

// durations returns the lengths of the lane's spans with the given name.
func (r *recorder) durations(laneID int, name string) []float64 {
	l := &r.lanes[laneID]
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, s := range l.spans {
		if s.name == name {
			out = append(out, float64(s.end-s.start))
		}
	}
	return out
}

// perIteration folds the children of every iteration span of the lane:
// fold receives the iteration span and its children in recording order.
func (r *recorder) perIteration(laneID int, fold func(iter span, children []span)) {
	l := &r.lanes[laneID]
	l.mu.Lock()
	defer l.mu.Unlock()
	children := make(map[int32][]span)
	for _, s := range l.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	for i, s := range l.spans {
		if s.name == "iteration" {
			fold(s, children[int32(i)])
		}
	}
}

// writeChromeTrace writes every span as a chrome://tracing complete event.
func (r *recorder) writeChromeTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	first := true
	for laneID := range r.lanes {
		l := &r.lanes[laneID]
		l.mu.Lock()
		for i, s := range l.spans {
			if !first {
				fmt.Fprint(w, ",")
			}
			first = false
			fmt.Fprintf(w, "\n"+`{"name":%q,"ph":"X","pid":0,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"iter":%d}}`,
				strings.ToValidUTF8(s.name, "?"), laneID, float64(s.start)/1e3, float64(s.end-s.start)/1e3, i, s.parent, s.iter)
		}
		l.mu.Unlock()
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
