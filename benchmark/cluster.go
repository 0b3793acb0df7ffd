package main

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"aiacc/engine"
	"aiacc/mpi"
	"aiacc/tensor"
	"aiacc/transport"
)

// barrier is the in-process rendezvous that starts every timed window: the
// last rank to arrive stamps the common start time.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	waiting int
	gen     uint64
	t0      time.Time
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) wait() time.Time {
	b.mu.Lock()
	defer b.mu.Unlock()
	gen := b.gen
	b.waiting++
	if b.waiting == b.n {
		b.waiting = 0
		b.gen++
		b.t0 = time.Now()
		b.cond.Broadcast()
	} else {
		for gen == b.gen {
			b.cond.Wait()
		}
	}
	return b.t0
}

// countingNet counts the frames and bytes handed to Send. The in-memory
// transport has no traffic counters in the metrics registry; the real
// transports do and are never wrapped.
type countingNet struct {
	transport.Network
	bytes, frames atomic.Int64
}

func (n *countingNet) Endpoint(r int) (transport.Endpoint, error) {
	ep, err := n.Network.Endpoint(r)
	if err != nil {
		return nil, err
	}
	return &countingEndpoint{Endpoint: ep, net: n}, nil
}

type countingEndpoint struct {
	transport.Endpoint
	net *countingNet
}

func (e *countingEndpoint) Send(to, stream int, data []byte) error {
	e.net.bytes.Add(int64(len(data)))
	e.net.frames.Add(1)
	return e.Endpoint.Send(to, stream, data)
}

// Abort keeps the collective abort flood working through the wrapper.
func (e *countingEndpoint) Abort(to, stream, origin int) error {
	return transport.Abort(e.Endpoint, to, stream, origin)
}

// iterReport is one rank's account of one iteration.
type iterReport struct {
	t0  time.Time
	end time.Time
	err error
}

// iterResult is what the whole world saw for one iteration.
type iterResult struct {
	wall  time.Duration // barrier release to the last WaitIteration return
	stall time.Duration // emulated next-forward stall on rank 0
}

// cluster is one live world: the network, one engine per rank and one driver
// goroutine per rank, which is the only thing generating load.
type cluster struct {
	w    *workload
	data *dataset
	net  transport.Network
	engs [ranks]*engine.Engine

	bar     *barrier
	cmds    [ranks]chan struct{} // one token per iteration and rank
	reports chan iterReport      // buffered to ranks: drivers never block on it
	drivers sync.WaitGroup

	// Rank 0's per-gradient completion time of the current iteration, in
	// nanoseconds since base, written by Config.OnGradient.
	base     time.Time
	arrive   []atomic.Int64
	gradIdx  map[string]int
	gradSpan []string                 // span name of each gradient's completion instant
	rec      atomic.Pointer[recorder] // nil on unrecorded iterations
	iterID   atomic.Int32

	schedBackward time.Duration
	fwdShare      time.Duration
	warmup        []float64 // wall time of each warm-up iteration, ns

	// Scratch of iterate, so that the benchmark's own allocations stay out
	// of engine.allocs_per_iter.
	timer     *time.Timer
	layerDone []time.Duration
}

const gradSpanPrefix = "grad "

// newCluster builds the network and engines, registers the gradients, starts
// everything and runs the warm-up iterations: the work setup_s times.
func newCluster(w *workload, data *dataset, warmup int) (*cluster, error) {
	c := &cluster{
		w: w, data: data,
		bar:     newBarrier(ranks),
		reports: make(chan iterReport, ranks),
		base:    time.Now(),
		arrive:  make([]atomic.Int64, len(data.grads)),
		gradIdx: make(map[string]int, len(data.grads)),
	}
	for i, g := range data.grads {
		c.gradIdx[g.name] = i
		c.gradSpan = append(c.gradSpan, gradSpanPrefix+g.name)
	}
	c.layerDone = make([]time.Duration, numLayers(data.grads))
	c.timer = time.NewTimer(time.Hour)
	c.schedBackward = scheduledBackward(data.bursts)
	c.fwdShare = forwardShare(c.schedBackward, numLayers(data.grads))

	net, err := w.network(w.cfg.RequiredStreams())
	if err != nil {
		return nil, fmt.Errorf("network: %w", err)
	}
	c.net = net
	for r := 0; r < ranks; r++ {
		if err := c.startEngine(r); err != nil {
			c.close()
			return nil, fmt.Errorf("rank %d: %w", r, err)
		}
	}
	for r := 0; r < ranks; r++ {
		c.cmds[r] = make(chan struct{})
		c.drivers.Add(1)
		go c.drive(r)
	}
	for i := 0; i < warmup; i++ {
		res, err := c.iterate(i == warmup-1, nil, 30*time.Second)
		if err != nil {
			c.close()
			return nil, fmt.Errorf("warm-up iteration %d: %w", i, err)
		}
		c.warmup = append(c.warmup, float64(res.wall))
	}
	return c, nil
}

func (c *cluster) startEngine(r int) error {
	ep, err := c.net.Endpoint(r)
	if err != nil {
		return err
	}
	cfg := c.w.cfg
	if r == 0 {
		cfg.OnGradient = c.onGradient
	}
	eng, err := engine.NewEngine(mpi.NewWorld(ep), cfg)
	if err != nil {
		return err
	}
	c.engs[r] = eng
	for _, g := range c.data.grads {
		if err := eng.RegisterWithPriority(g.name, g.elems, g.layer); err != nil {
			return err
		}
	}
	return eng.Start()
}

// onGradient runs on an engine worker of rank 0 each time a gradient has
// been reduced and scattered back.
func (c *cluster) onGradient(name string) {
	now := time.Now()
	i := c.gradIdx[name]
	c.arrive[i].Store(int64(now.Sub(c.base)))
	if rec := c.rec.Load(); rec != nil {
		rec.add(0, span{name: c.gradSpan[i], iter: c.iterID.Load(), parent: rec.current(0),
			start: rec.at(now), end: rec.at(now)})
	}
}

// watchdog returns the per-iteration deadline: 20 × the warm-up median, at
// least 10 s.
func (c *cluster) watchdog() time.Duration {
	return max(20*time.Duration(median(c.warmup)), 10*time.Second)
}

var errWatchdog = errors.New("iteration deadline exceeded")

// iterate runs one closed-loop iteration on every rank and waits for all of
// them, at most for the deadline.
func (c *cluster) iterate(verify bool, rec *recorder, deadline time.Duration) (iterResult, error) {
	c.iterID.Add(1)
	c.rec.Store(rec)
	for r := range c.cmds {
		c.cmds[r] <- struct{}{}
	}
	c.timer.Reset(deadline)
	defer c.timer.Stop()
	var (
		t0, end  time.Time
		firstErr error
	)
	for got := 0; got < ranks; got++ {
		select {
		case rep := <-c.reports:
			if rep.err != nil && firstErr == nil {
				firstErr = rep.err
			}
			t0 = rep.t0
			if rep.end.After(end) {
				end = rep.end
			}
		case <-c.timer.C:
			return iterResult{}, errWatchdog
		}
	}
	if firstErr != nil {
		return iterResult{}, firstErr
	}
	if verify {
		// Only now: a rank that checked its own result as soon as it had it
		// would take CPU from the ranks still inside the timed window.
		for r := range c.data.work {
			if bad := c.mismatches(c.data.work[r]); bad > 0 {
				return iterResult{}, fmt.Errorf("verification: %d elements of rank %d differ from the exact mean", bad, r)
			}
		}
	}
	return iterResult{wall: end.Sub(t0), stall: c.forwardStall(t0)}, nil
}

// drive is one rank's load generator.
func (c *cluster) drive(r int) {
	defer c.drivers.Done()
	work, pristine := c.data.work[r], c.data.pristine[r]
	for range c.cmds[r] {
		// Outside the timed window: restore this rank's gradients.
		for i, t := range work {
			copy(t.Data(), pristine[i])
		}
		if r == 0 {
			for i := range c.arrive {
				c.arrive[i].Store(0)
			}
		}
		t0 := c.bar.wait()
		rep := iterReport{t0: t0}
		rep.end, rep.err = c.pushAndWait(r, t0)
		c.reports <- rep
	}
}

// pushAndWait is the timed part of an iteration on one rank: gradients go in
// backward order, paced by sleeps that emulate backward compute (like a GPU,
// they use no host CPU), then the rank waits for the iteration.
func (c *cluster) pushAndWait(r int, t0 time.Time) (time.Time, error) {
	eng, work := c.engs[r], c.data.work[r]
	rec, iter := c.rec.Load(), c.iterID.Load()
	iterSpan := int32(-1)
	if rec != nil {
		iterSpan = rec.begin(r, span{name: "iteration", iter: iter, parent: -1, start: rec.at(t0)})
	}
	var err error
push:
	for _, b := range c.data.bursts {
		if b.sleep > 0 {
			time.Sleep(b.sleep)
		}
		for _, g := range b.grads {
			var start time.Time
			if rec != nil {
				start = time.Now()
			}
			if err = eng.PushGradient(c.data.grads[g].name, work[g]); err != nil {
				break push
			}
			if rec != nil {
				rec.add(r, span{name: "push", iter: iter, parent: iterSpan,
					start: rec.at(start), end: rec.at(time.Now())})
			}
		}
	}
	waitStart := time.Now()
	if err == nil {
		err = eng.WaitIteration()
	}
	end := time.Now()
	if rec != nil {
		rec.add(r, span{name: "wait", iter: iter, parent: iterSpan,
			start: rec.at(waitStart), end: rec.at(end)})
		rec.finish(r, iterSpan, rec.at(end))
	}
	return end, err
}

// mismatches counts the elements of one rank's reduced gradients that are
// not bit-identical to the exact mean.
func (c *cluster) mismatches(work []*tensor.Tensor) int {
	bad := 0
	for g, t := range work {
		exp := c.data.expected[g]
		for i, v := range t.Data() {
			if math.Float32bits(v) != math.Float32bits(exp[i]) {
				bad++
			}
		}
	}
	return bad
}

// forwardStall walks the next forward pass against rank 0's gradient
// arrivals (see forwardStall in stats.go).
func (c *cluster) forwardStall(t0 time.Time) time.Duration {
	clear(c.layerDone)
	off := t0.Sub(c.base)
	for i, g := range c.data.grads {
		c.layerDone[g.layer] = max(c.layerDone[g.layer], time.Duration(c.arrive[i].Load())-off)
	}
	return forwardStall(c.layerDone, c.schedBackward, c.fwdShare)
}

// close stops the drivers, the engines and then the network. Only a healthy
// cluster is closed; after a failed iteration the process reports and exits.
func (c *cluster) close() {
	for r := range c.cmds {
		if c.cmds[r] != nil {
			close(c.cmds[r])
		}
	}
	c.drivers.Wait()
	for _, e := range c.engs {
		if e != nil {
			_ = e.Close()
		}
	}
	if c.net != nil {
		_ = c.net.Close()
	}
}
