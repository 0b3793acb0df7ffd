// Package perseus is the public, Horovod-compatible API of the
// AIACC-Training reproduction (the paper names its unified communication API
// "Perseus", §IV). It mirrors the Horovod workflow —
//
//	session   := perseus.NewSession(endpoint, opts...)
//	           … register parameters, Start() …
//	optimizer := session.DistributedOptimizer(sgd)
//	           … per step: compute local gradients, optimizer.Step() …
//
// — while the engine underneath performs AIACC's decentralized gradient
// synchronization and multi-streamed concurrent ring all-reduce. Porting a
// Horovod program is the one-line import swap the paper advertises; porting
// a sequential program is automated by the aiacc-translate tool.
package perseus

import (
	"errors"
	"fmt"

	"aiacc/compress"
	"aiacc/engine"
	"aiacc/mpi"
	"aiacc/optimizer"
	"aiacc/tensor"
	"aiacc/trace"
	"aiacc/transport"
)

// Re-exported sentinel errors from the engine.
var (
	// ErrClosed is returned by operations on a closed session.
	ErrClosed = engine.ErrClosed
	// ErrNotStarted indicates the session has not been started.
	ErrNotStarted = engine.ErrNotStarted
	// ErrStarted indicates registration after Start.
	ErrStarted = engine.ErrStarted
)

// Option configures a Session.
type Option func(*engine.Config) error

// WithStreams sets the number of concurrent communication streams (the
// auto-tuner's primary knob; the paper observes tuned values between 2 and
// 24).
func WithStreams(n int) Option {
	return func(c *engine.Config) error {
		if n <= 0 {
			return fmt.Errorf("perseus: streams %d", n)
		}
		c.Streams = n
		return nil
	}
}

// WithGranularity sets the all-reduce unit size in bytes.
func WithGranularity(bytes int64) Option {
	return func(c *engine.Config) error {
		if bytes < 4 {
			return fmt.Errorf("perseus: granularity %d bytes", bytes)
		}
		c.GranularityBytes = bytes
		return nil
	}
}

// WithHierarchicalAllReduce selects the hierarchical ("tree") all-reduce
// with the given intra-node group size instead of the flat ring.
func WithHierarchicalAllReduce(gpusPerNode int) Option {
	return func(c *engine.Config) error {
		if gpusPerNode <= 0 {
			return fmt.Errorf("perseus: gpusPerNode %d", gpusPerNode)
		}
		c.Algorithm = engine.Hierarchical
		c.GPUsPerNode = gpusPerNode
		return nil
	}
}

// WithMasterCoordinator selects the Horovod-style rank-0 readiness
// coordinator instead of AIACC's decentralized agreement — the ablation knob
// for the paper's scalability comparison.
func WithMasterCoordinator() Option {
	return func(c *engine.Config) error {
		c.Coordinator = engine.Master
		return nil
	}
}

// WithFP16Compression transmits gradients as IEEE binary16, halving wire
// traffic; reductions still run in fp32.
func WithFP16Compression() Option {
	return func(c *engine.Config) error {
		c.Codec = compress.FP16{}
		return nil
	}
}

// WithNaNDetection makes every gradient push scan for non-finite values and
// fail with a *NaNError naming the offending parameter.
func WithNaNDetection() Option {
	return func(c *engine.Config) error {
		c.DetectNaN = true
		return nil
	}
}

// WithoutAveraging keeps all-reduced gradients as sums instead of dividing
// by the world size.
func WithoutAveraging() Option {
	return func(c *engine.Config) error {
		c.Average = false
		return nil
	}
}

// WithGradientCallback registers fn to be invoked (from an engine worker)
// whenever a parameter's gradient has been fully aggregated.
func WithGradientCallback(fn func(name string)) Option {
	return func(c *engine.Config) error {
		c.OnGradient = fn
		return nil
	}
}

// WithTrace records the engine timeline (gradient pushes, sync rounds,
// per-stream all-reduce spans) into the recorder for chrome://tracing
// export.
func WithTrace(rec *trace.Recorder) Option {
	return func(c *engine.Config) error {
		c.Trace = rec
		return nil
	}
}

// NaNError is the detailed error produced under WithNaNDetection.
type NaNError = engine.NaNError

// RequiredStreams returns the number of transport streams a session with the
// given options needs (data streams + 1 synchronization stream). Use it to
// size transport.NewMem / transport.NewTCP.
func RequiredStreams(opts ...Option) (int, error) {
	cfg := engine.DefaultConfig()
	for _, o := range opts {
		if err := o(&cfg); err != nil {
			return 0, err
		}
	}
	return cfg.RequiredStreams(), nil
}

// Session is one worker's handle on the distributed training group,
// analogous to an initialized Horovod context.
type Session struct {
	engine *engine.Engine
	comm   *mpi.Comm
}

// NewSession creates a session for this worker's transport endpoint.
func NewSession(ep transport.Endpoint, opts ...Option) (*Session, error) {
	if ep == nil {
		return nil, errors.New("perseus: nil endpoint")
	}
	cfg := engine.DefaultConfig()
	for _, o := range opts {
		if err := o(&cfg); err != nil {
			return nil, err
		}
	}
	comm := mpi.NewWorld(ep)
	engine, err := engine.NewEngine(comm, cfg)
	if err != nil {
		return nil, err
	}
	return &Session{engine: engine, comm: comm}, nil
}

// Engine exposes the underlying gradient engine for subsystems that compose
// with it directly — e.g. fault.SyncParameters takes an *engine.Engine so the
// elastic-join broadcast can carry the resume step alongside the parameters.
func (s *Session) Engine() *engine.Engine { return s.engine }

// Rank returns this worker's rank — hvd.rank().
func (s *Session) Rank() int { return s.engine.Rank() }

// Size returns the number of workers — hvd.size().
func (s *Session) Size() int { return s.engine.Size() }

// LocalRank returns the rank within this worker's computing node, assuming
// gpusPerNode consecutive global ranks per node — hvd.local_rank().
func (s *Session) LocalRank(gpusPerNode int) int {
	if gpusPerNode <= 0 {
		return 0
	}
	return s.engine.Rank() % gpusPerNode
}

// Register declares a parameter before Start (Fig. 8a's gradient
// registration). All workers must register identical sets.
func (s *Session) Register(name string, elems int) error {
	return s.engine.Register(name, elems)
}

// RegisterParams registers every parameter in the list.
func (s *Session) RegisterParams(params []optimizer.Param) error {
	for _, p := range params {
		if err := s.Register(p.Name, p.Weight.Len()); err != nil {
			return err
		}
	}
	return nil
}

// Start finalizes registration and launches the communication engine.
func (s *Session) Start() error { return s.engine.Start() }

// PushGradient submits a locally computed gradient; it is aggregated in
// place. Gradients may be pushed from any goroutine, in any order.
func (s *Session) PushGradient(name string, grad *tensor.Tensor) error {
	return s.engine.PushGradient(name, grad)
}

// WaitIteration blocks until every registered gradient has been aggregated
// across all workers this iteration.
func (s *Session) WaitIteration() error { return s.engine.WaitIteration() }

// AllReduce synchronously aggregates one full iteration's worth of
// gradients: it pushes every named tensor and waits for completion. It is a
// convenience equivalent to PushGradient for each entry + WaitIteration.
func (s *Session) AllReduce(grads map[string]*tensor.Tensor) error {
	for name, g := range grads {
		if err := s.PushGradient(name, g); err != nil {
			return err
		}
	}
	return s.WaitIteration()
}

// BroadcastParameters distributes root's parameter values to every worker —
// hvd.broadcast_parameters, also used for elastic scale-out. Parameters are
// broadcast in list order; all workers must pass identically ordered lists.
func (s *Session) BroadcastParameters(params []optimizer.Param, root int) error {
	for _, p := range params {
		if err := s.engine.Broadcast(p.Weight, root); err != nil {
			return fmt.Errorf("broadcast %q: %w", p.Name, err)
		}
	}
	return nil
}

// Stats returns engine counters (iterations, sync rounds, units, bytes).
type Stats = engine.Stats

// Stats returns a snapshot of the communication counters.
func (s *Session) Stats() Stats { return s.engine.Stats() }

// Close shuts the session down: the engine, then the communicator's
// sender goroutines.
func (s *Session) Close() error {
	err := s.engine.Close()
	s.comm.Close()
	return err
}

// DistributedOptimizer wraps an optimizer the way hvd.DistributedOptimizer
// does: its Step first pushes all local gradients (in reverse registration
// order, mimicking backward propagation), waits for global aggregation, then
// applies the inner optimizer to the averaged gradients.
func (s *Session) DistributedOptimizer(inner optimizer.Optimizer) optimizer.Optimizer {
	return &distOptimizer{session: s, inner: inner}
}

type distOptimizer struct {
	session *Session
	inner   optimizer.Optimizer
}

var _ optimizer.Optimizer = (*distOptimizer)(nil)

// Name implements optimizer.Optimizer.
func (d *distOptimizer) Name() string { return "distributed-" + d.inner.Name() }

// Step implements optimizer.Optimizer.
func (d *distOptimizer) Step(step int, params []optimizer.Param) error {
	for i := len(params) - 1; i >= 0; i-- {
		if err := d.session.PushGradient(params[i].Name, params[i].Grad); err != nil {
			return err
		}
	}
	if err := d.session.WaitIteration(); err != nil {
		return err
	}
	return d.inner.Step(step, params)
}
