// Package engine implements the AIACC-Training gradient communication engine
// (§V, Fig. 6): the live, byte-moving counterpart of the paper's per-GPU MPI
// communication process.
//
// Per training iteration the engine:
//
//  1. receives locally computed gradients through a push queue (the paper's
//     CUDA-MPI-aware gradient message queue) in arbitrary production order,
//  2. marks them in the gradient synchronization vector and — once the
//     accumulated bucket reaches the minimum communication granularity —
//     runs a collective agreement round (decentralized min/AND all-reduce,
//     or the Horovod-style master baseline),
//  3. packs the globally agreed gradients into all-reduce units of the tuned
//     granularity (splitting large tensors, merging small ones); a unit is a
//     list of fragments, spans of the pushed tensors, and is never copied
//     into a buffer of its own,
//  4. dispatches each unit to its stream's dispatcher (sched.go), which
//     runs ring (or hierarchical) all-reduce over independent communication
//     streams concurrently, optionally fp16-compressed, and within a stream
//     always runs the most urgent unit first; the collective also averages,
//     each chunk owner scaling its 1/n of the unit (collective.WithScale),
//  5. finds each reduced unit already in the gradient tensors, since the
//     collective ran over the unit's fragments where they lie
//     (collective.RingAllReducePieces), and fires the per-gradient
//     completion callback for the optimizer.
//
// All of this happens concurrently with the caller's ongoing backward pass,
// which is what lets communication hide behind computation (Fig. 5).
package engine

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"aiacc/collective"
	"aiacc/compress"
	"aiacc/internal/gradsync"
	"aiacc/internal/packing"
	"aiacc/mpi"
	"aiacc/tensor"
	"aiacc/trace"
)

// Common errors.
var (
	// ErrClosed is returned by operations on a closed engine.
	ErrClosed = errors.New("engine: engine closed")
	// ErrNotStarted indicates a call that requires Start first.
	ErrNotStarted = errors.New("engine: engine not started")
	// ErrStarted indicates registration after Start.
	ErrStarted = errors.New("engine: engine already started")
	// ErrBadConfig indicates an invalid engine configuration.
	ErrBadConfig = errors.New("engine: bad configuration")
)

// NaNError reports a non-finite value detected in a pushed gradient — the
// debugging aid AIACC-Training offers for diverging training runs (§IV).
type NaNError struct {
	// Name is the gradient's parameter name.
	Name string
	// Index is the flat element index of the first non-finite value.
	Index int
}

// Error implements error.
func (e *NaNError) Error() string {
	return fmt.Sprintf("engine: gradient %q has a non-finite value at element %d", e.Name, e.Index)
}

// Config tunes the engine. The zero value is invalid; start from
// DefaultConfig. The embedded Policy holds the communication policy, which
// the cluster simulator runs too and the auto-tuner searches over; the other
// fields are live-only.
type Config struct {
	Policy
	// Codec is the wire codec (fp32 or fp16 compression). Under fp16 the
	// reduce-scatter hops carry partial sums, so inputs must keep
	// (n-1)·max|x| below 65504; with Average the all-gather carries the mean.
	Codec compress.Codec
	// Average divides reduced gradients by the world size, yielding the
	// data-parallel mean gradient. The collective applies it: after the
	// reduce-scatter each element's owner scales it once by 1/n
	// (collective.WithScale), so there is no separate pass over the unit.
	// Under fp32 the result is bit-identical to summing, then scaling. Under
	// fp16 the all-gather encodes the mean, not the sum: a sum above 65504
	// whose mean fits no longer becomes ±Inf, but a mean below 2⁻¹⁴ lands in
	// fp16's subnormal range where the sum would have stayed normal.
	Average bool
	// DetectNaN scans every pushed gradient for non-finite values.
	DetectNaN bool
	// OnGradient, if set, is invoked (from the goroutine running the unit
	// that completed it) each time a gradient has been fully reduced and
	// scattered back.
	OnGradient func(name string)
	// Trace, if set, records the engine timeline (pushes, sync rounds,
	// per-stream all-reduce spans) for chrome://tracing export.
	Trace *trace.Recorder
}

// DefaultConfig returns the engine defaults used before auto-tuning: 4
// streams, 4 MiB units, flat ring, decentralized sync, fp32 wire, averaging.
func DefaultConfig() Config {
	return Config{
		Policy: Policy{
			Streams:          4,
			GranularityBytes: 4 << 20,
			Algorithm:        Ring,
			GPUsPerNode:      8,
			Coordinator:      Decentralized,
		},
		Codec:   compress.FP32{},
		Average: true,
	}
}

// Validate checks the policy and the live-only fields; every error wraps
// ErrBadConfig.
func (c Config) Validate() error {
	if err := c.Policy.Validate(); err != nil {
		return err
	}
	if c.Codec == nil {
		return fmt.Errorf("%w: nil codec", ErrBadConfig)
	}
	return nil
}

// RequiredStreams returns the number of transport streams an engine with
// this config needs: the data streams plus one dedicated synchronization
// stream.
func (c Config) RequiredStreams() int { return c.Streams + 1 }

// Stats is a snapshot of engine counters.
type Stats struct {
	// Iterations completed.
	Iterations int64
	// SyncRounds is the number of collective agreement rounds run.
	SyncRounds int64
	// Units is the number of all-reduce units dispatched.
	Units int64
	// BytesReduced is the total payload reduced (pre-codec fp32 bytes).
	BytesReduced int64
}

type push struct {
	id   int
	data []float32
}

// Engine is one worker's gradient communication engine. Registration and
// Start happen single-threaded; afterwards PushGradient may be called from
// any goroutine while WaitIteration is called by the training loop.
type Engine struct {
	comm *mpi.Comm
	cfg  Config

	registry *gradsync.Registry
	grads    []gradsync.Gradient // by id, after Start

	packer  *packing.Packer
	session *gradsync.Session
	local   *gradsync.SyncVector

	pushCh   chan push
	stop     chan struct{}
	stopOnce sync.Once
	loopDone chan struct{}
	iterDone chan error

	mu        sync.Mutex
	data      map[int][]float32 // id -> gradient storage for this iteration
	remaining map[int]int       // id -> fragments still in flight
	stats     Stats

	met *engineMetrics

	// Dispatcher state (sched.go, plex.go).
	sched     []*streamSched // per data stream
	plex      *plexTable     // nil with one class: units never interleave
	preempt   bool           // one class per priority: depth 2 and several priorities
	schedMu   sync.Mutex
	schedCond *sync.Cond
	schedOut  int   // dispatched units not yet retired
	schedErr  error // first unit failure
	schedStop bool  // engine stopping: tail wait returns ErrClosed

	started bool
	failed  error
}

// NewEngine creates an engine over the communicator. The communicator's
// transport must provide at least cfg.RequiredStreams() streams.
func NewEngine(comm *mpi.Comm, cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if comm.Streams() < cfg.RequiredStreams() {
		return nil, fmt.Errorf("%w: transport has %d streams, config needs %d",
			ErrBadConfig, comm.Streams(), cfg.RequiredStreams())
	}
	if cfg.Algorithm == Hierarchical && comm.Size()%cfg.GPUsPerNode != 0 {
		// The two-level schedule needs equally sized nodes; failing here
		// beats failing on the first all-reduce of the training loop.
		return nil, fmt.Errorf("%w: world size %d is not divisible by gpusPerNode %d",
			ErrBadConfig, comm.Size(), cfg.GPUsPerNode)
	}
	cfg.MinSyncBytes = cfg.SyncBytes()
	return &Engine{
		comm:     comm,
		cfg:      cfg,
		registry: gradsync.NewRegistry(),
		stop:     make(chan struct{}),
		loopDone: make(chan struct{}),
		iterDone: make(chan error, 1),
	}, nil
}

// Comm returns the engine's communicator.
func (e *Engine) Comm() *mpi.Comm { return e.comm }

// Rank returns the worker's rank.
func (e *Engine) Rank() int { return e.comm.Rank() }

// Size returns the world size.
func (e *Engine) Size() int { return e.comm.Size() }

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// Register declares a parameter's gradient before Start, mirroring the
// gradient registration of Fig. 8a. All workers must register the same set.
func (e *Engine) Register(name string, elems int) error {
	if e.started {
		return ErrStarted
	}
	return e.registry.Register(name, elems)
}

// RegisterWithPriority is Register with a scheduling priority: the
// parameter's forward layer index (lower = the next forward pass needs its
// gradient sooner). Priorities order unit packing reverse-topologically and,
// with Config.PriorityDepth 2, make each unit's priority its class in the
// per-stream preemptive scheduler.
// All workers must register identical priorities (they come from the shared
// model, so they do).
func (e *Engine) RegisterWithPriority(name string, elems, priority int) error {
	if e.started {
		return ErrStarted
	}
	return e.registry.RegisterWithPriority(name, elems, priority)
}

// Start finalizes registration, allocates the synchronization vector and
// the stream dispatchers, and launches the engine loop.
func (e *Engine) Start() error {
	if e.started {
		return ErrStarted
	}
	grads, err := e.registry.Finalize()
	if err != nil {
		return fmt.Errorf("finalize registry: %w", err)
	}
	if len(grads) == 0 {
		return fmt.Errorf("%w: no gradients registered", ErrBadConfig)
	}
	e.grads = grads
	packer, err := packing.NewPacker(e.cfg.GranularityBytes)
	if err != nil {
		return err
	}
	e.packer = packer
	e.local = gradsync.NewSyncVector(len(grads))
	e.session = gradsync.NewSession(e.coordinator(), len(grads))
	e.pushCh = make(chan push, len(grads))
	e.data = make(map[int][]float32, len(grads))
	e.remaining = make(map[int]int, len(grads))
	e.met = newEngineMetrics(e.comm.Rank(), e.cfg.Streams)
	e.preempt = e.cfg.PriorityDepth == 2 &&
		slices.ContainsFunc(grads, func(g gradsync.Gradient) bool { return g.Priority != grads[0].Priority })
	e.schedCond = sync.NewCond(&e.schedMu)
	e.sched = make([]*streamSched, e.cfg.Streams)
	for s := range e.sched {
		e.sched[s] = newStreamSched()
	}
	if e.preempt {
		e.plex = newPlexTable(e.comm.Endpoint(), e.cfg.Streams, e.comm.Size())
	}
	e.publishConfig()
	e.started = true
	go e.loop()
	return nil
}

// syncStream is the dedicated transport stream for agreement rounds.
func (e *Engine) syncStream() int { return e.cfg.Streams }

// pushLane is the trace lane for gradient-push instants.
func (e *Engine) pushLane() int { return e.cfg.Streams + 1 }

func (e *Engine) coordinator() gradsync.Coordinator {
	if e.cfg.Coordinator == Master {
		m := gradsync.NewMaster(e.comm, e.syncStream())
		m.SetTrace(e.cfg.Trace)
		return m
	}
	d := gradsync.NewDecentralized(e.comm, e.syncStream())
	d.SetTrace(e.cfg.Trace)
	return d
}

// PushGradient hands a locally computed gradient to the engine. The tensor's
// storage is shared with the engine until WaitIteration returns: the engine
// reduces every unit in place, in the pushed tensors, so afterwards the
// tensor holds the globally aggregated (and averaged) gradient. Distinct
// gradients must therefore not share storage: units reducing overlapping
// memory would corrupt each other. After an iteration that failed, the
// tensor's contents are unspecified: a reduction may have stopped part-way
// through it. Safe for concurrent use.
func (e *Engine) PushGradient(name string, grad *tensor.Tensor) error {
	if !e.started {
		return ErrNotStarted
	}
	g, err := e.registry.ByName(name)
	if err != nil {
		return err
	}
	if grad.Len() != g.Elems {
		return fmt.Errorf("engine: gradient %q has %d elements, registered %d: %w",
			name, grad.Len(), g.Elems, tensor.ErrShapeMismatch)
	}
	if e.cfg.DetectNaN {
		if bad, idx := grad.HasNaN(); bad {
			return &NaNError{Name: name, Index: idx}
		}
	}
	// Fail deterministically once closed (the buffered push channel might
	// otherwise still accept).
	select {
	case <-e.stop:
		return ErrClosed
	default:
	}
	select {
	case e.pushCh <- push{id: g.ID, data: grad.Data()}:
		if e.cfg.Trace != nil {
			e.cfg.Trace.Instant("push "+name, "gradient", e.pushLane())
		}
		return nil
	case <-e.stop:
		return ErrClosed
	}
}

// WaitIteration blocks until every registered gradient has been pushed by
// all workers, reduced, averaged and scattered back, then prepares the
// engine for the next iteration.
func (e *Engine) WaitIteration() error {
	if !e.started {
		return ErrNotStarted
	}
	select {
	case err := <-e.iterDone:
		if err != nil {
			e.failed = err
		}
		return err
	case <-e.stop:
		if e.failed != nil {
			return e.failed
		}
		return ErrClosed
	}
}

// Broadcast distributes root's tensor to all workers over the sync stream.
// It must not run concurrently with an active iteration; it is intended for
// initial parameter synchronization and elastic scale-out.
func (e *Engine) Broadcast(t *tensor.Tensor, root int) error {
	if !e.started {
		return ErrNotStarted
	}
	return collective.BroadcastCodec(e.comm, e.syncStream(), root, t.Data(), compress.FP32{})
}

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// Close shuts the engine down: the loop stops, every gate opens, units in
// flight retire (failing fast once the transport is gone) and every blocked
// caller is released with ErrClosed. Close is idempotent.
func (e *Engine) Close() error {
	e.stopOnce.Do(func() { close(e.stop) })
	if e.started {
		e.schedClose()
	}
	return nil
}

// loop runs iterations until stopped or failed.
func (e *Engine) loop() {
	defer close(e.loopDone)
	for {
		err := e.runIteration()
		if err == nil {
			// Counted before WaitIteration can return, so Stats read after
			// it sees this iteration.
			e.mu.Lock()
			e.stats.Iterations++
			e.mu.Unlock()
		}
		select {
		case e.iterDone <- err:
		case <-e.stop:
			return
		}
		if err != nil {
			return
		}
		e.resetIteration()
	}
}

func (e *Engine) resetIteration() {
	e.session.Reset()
	e.local.Reset()
	e.mu.Lock()
	clear(e.data)
	clear(e.remaining)
	e.mu.Unlock()
}

// runIteration drives one training step's communication: consume pushes,
// run agreement rounds, pack and dispatch units, wait for them to retire.
func (e *Engine) runIteration() error {
	var (
		pushedCount   int
		bytesUnsynced int64
		seq           int
	)
	iterStart := clockStart()
	total := len(e.grads)
	record := func(p push) {
		e.mu.Lock()
		e.data[p.id] = p.data
		e.mu.Unlock()
		_ = e.local.Set(p.id)
		pushedCount++
		bytesUnsynced += int64(len(p.data)) * 4
	}
	for !e.session.Done() {
		// Wait until a synchronization round is warranted: the unsynced
		// bucket reached the minimum granularity, or everything local has
		// been pushed (then rounds run back-to-back until global agreement).
		for pushedCount < total && bytesUnsynced < e.cfg.MinSyncBytes {
			select {
			case p := <-e.pushCh:
				record(p)
			case <-e.stop:
				return ErrClosed
			}
		}
		// Drain whatever else is already queued.
		for drained := false; !drained; {
			select {
			case p := <-e.pushCh:
				record(p)
			default:
				drained = true
			}
		}
		syncStart := clockStart()
		syncSpan := e.cfg.Trace.Begin("sync round", "sync", e.syncStream())
		fresh, err := e.session.Update(e.local)
		if e.cfg.Trace != nil {
			syncSpan.Arg("fresh", strconv.Itoa(len(fresh))).End()
		}
		if !syncStart.IsZero() {
			e.met.syncNs.ObserveSince(syncStart)
			e.met.freshCount.Observe(int64(len(fresh)))
		}
		if err != nil {
			return err
		}
		e.mu.Lock()
		e.stats.SyncRounds++
		e.mu.Unlock()
		bytesUnsynced = 0
		if len(fresh) == 0 {
			continue
		}
		units, err := e.packer.Pack(e.registry.ByID, fresh, seq)
		if err != nil {
			return err
		}
		seq += len(units)
		var roundBytes int64
		for _, u := range units {
			roundBytes += u.Bytes()
			e.met.unitBytes.Observe(u.Bytes())
		}
		e.met.roundBytes.Observe(roundBytes)
		e.mu.Lock()
		for _, u := range units {
			for _, f := range u.Fragments {
				e.remaining[f.GradID]++
			}
		}
		e.mu.Unlock()
		for _, u := range units {
			e.dispatch(u)
		}
	}
	// The final drain is the communication the iteration could not hide
	// behind incoming pushes: the paper's non-overlapped tail.
	tailStart := clockStart()
	err := e.schedWait()
	if !iterStart.IsZero() {
		now := time.Now()
		iter := now.Sub(iterStart)
		tail := now.Sub(tailStart)
		e.met.iterNs.Observe(iter.Nanoseconds())
		e.met.tailNs.Observe(tail.Nanoseconds())
		if iter > 0 {
			e.met.overlap.Set(1 - float64(tail)/float64(iter))
		}
		e.met.iterations.Inc()
	}
	return err
}

// piecesPool recycles the per-unit piece lists. A list lives as long as its
// unit's all-reduce, and with PriorityDepth 2 a stream parks units mid-flight
// while another runs, so a list per stream would not do.
var piecesPool = sync.Pool{New: func() any { return new([][]float32) }}

// reduceUnit all-reduces and averages one unit on the given stream, in the
// pushed tensors: the unit's pieces are its fragments' spans, and the
// collective runs over them where they lie. comm is the engine's
// communicator, over the real endpoint with one class and over the unit's
// tagging view (plexEndpoint) with several; yield, when non-nil, is the
// segment-boundary preemption gate. Both algorithms take both.
func (e *Engine) reduceUnit(streamID int, u packing.Unit, comm *mpi.Comm, yield func()) error {
	if e.cfg.Trace != nil {
		span := e.cfg.Trace.Begin(fmt.Sprintf("all-reduce unit %d", u.Seq), "comm", streamID)
		span = span.Arg("bytes", strconv.FormatInt(u.Bytes(), 10))
		defer span.End()
	}
	busyStart := clockStart()
	defer e.observeStreamBusy(streamID, busyStart)
	pp := piecesPool.Get().(*[][]float32)
	defer putPieces(pp)
	for _, f := range u.Fragments {
		data, err := e.gradData(f.GradID)
		if err != nil {
			return err
		}
		span, err := f.Span(data)
		if err != nil {
			return err
		}
		*pp = append(*pp, span)
	}
	// The collective averages: each chunk owner scales its 1/n of the unit.
	var scale float32
	if e.cfg.Average && e.comm.Size() > 1 {
		scale = float32(1) / float32(e.comm.Size())
	}
	seg, gate, avg := collective.WithSegmentBytes(e.cfg.SegmentBytes), collective.WithYield(yield),
		collective.WithScale(scale)
	var rerr error
	if e.cfg.Algorithm == Hierarchical {
		rerr = collective.HierarchicalAllReducePieces(comm, streamID, e.cfg.GPUsPerNode, *pp, tensor.OpSum,
			e.cfg.Codec, seg, gate, avg)
	} else {
		rerr = collective.RingAllReducePieces(comm, streamID, *pp, tensor.OpSum, e.cfg.Codec, seg, gate, avg)
	}
	if rerr != nil {
		return fmt.Errorf("unit %d all-reduce: %w", u.Seq, rerr)
	}
	e.completeFragments(u)
	return nil
}

// putPieces drops a piece list's references to the gradient tensors and
// pools it.
func putPieces(pp *[][]float32) {
	clear(*pp)
	*pp = (*pp)[:0]
	piecesPool.Put(pp)
}

// observeStreamBusy accumulates one unit's all-reduce time into the stream's
// busy counter (plain function so the deferred call open-codes).
func (e *Engine) observeStreamBusy(streamID int, t0 time.Time) {
	if !t0.IsZero() {
		e.met.streamBusyNs[streamID].Add(time.Since(t0).Nanoseconds())
	}
}

func (e *Engine) gradData(id int) ([]float32, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	data, ok := e.data[id]
	if !ok {
		return nil, fmt.Errorf("%w: gradient %d not pushed", gradsync.ErrUnknownGradient, id)
	}
	return data, nil
}

func (e *Engine) completeFragments(u packing.Unit) {
	var done []int
	e.mu.Lock()
	for _, f := range u.Fragments {
		e.remaining[f.GradID]--
		if e.remaining[f.GradID] == 0 {
			done = append(done, f.GradID)
		}
	}
	e.mu.Unlock()
	if e.cfg.OnGradient != nil {
		for _, id := range done {
			e.cfg.OnGradient(e.grads[id].Name)
		}
	}
}
