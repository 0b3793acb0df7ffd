package train

import (
	"errors"
	"fmt"
	"math"
	"time"

	"aiacc/engine"
	"aiacc/model"
	"aiacc/mpi"
	"aiacc/optimizer"
	"aiacc/tensor"
)

// Producer computes local gradients for one training step. Implementations:
// *MLPProducer (real backprop) and *SyntheticProducer (zoo models).
type Producer interface {
	// Params lists the parameters with their gradient tensors; the order
	// defines the gradient production (push) order, which the trainer
	// reverses to mimic backward propagation.
	Params() []optimizer.Param
	// Compute fills every gradient tensor for the given 1-based step and
	// returns the local loss.
	Compute(step int) (float64, error)
}

// CommEngine is the communication surface a Trainer drives. Both the AIACC
// engine (engine.Engine) and the parameter-server baseline
// (baseline.PSEngine) implement it, so training loops can swap gradient
// aggregation architectures.
type CommEngine interface {
	// Register declares a parameter's gradient before Start.
	Register(name string, elems int) error
	// Start finalizes registration and launches the engine.
	Start() error
	// PushGradient submits a locally computed gradient for aggregation.
	PushGradient(name string, grad *tensor.Tensor) error
	// WaitIteration blocks until all gradients are aggregated.
	WaitIteration() error
	// Close shuts the engine down.
	Close() error
}

// broadcaster is implemented by engines that can distribute initial
// parameters (the AIACC engine); engines without it skip the initial
// broadcast and rely on identical initialization.
type broadcaster interface {
	Broadcast(t *tensor.Tensor, root int) error
}

// priorityRegistrar is implemented by engines whose scheduler orders
// gradient transfers by forward layer index (the AIACC engine's
// priority-driven bucket scheduler); engines without it register flat and
// ignore layer information.
type priorityRegistrar interface {
	RegisterWithPriority(name string, elems, priority int) error
}

// Trainer couples a Producer, a communication engine and an optimizer into a
// live data-parallel training loop: Compute → push gradients (reverse layer
// order) → wait for aggregation → optimizer step.
type Trainer struct {
	engine   CommEngine
	producer Producer
	opt      optimizer.Optimizer
	params   []optimizer.Param
	step     int
}

// NewTrainer creates an AIACC engine from cfg on comm and wires a trainer
// onto it (see NewTrainerWithEngine).
func NewTrainer(comm *mpi.Comm, cfg engine.Config, producer Producer, opt optimizer.Optimizer) (*Trainer, error) {
	if producer == nil || opt == nil {
		return nil, errors.New("train: nil producer or optimizer")
	}
	eng, err := engine.NewEngine(comm, cfg)
	if err != nil {
		return nil, err
	}
	return NewTrainerWithEngine(eng, producer, opt)
}

// NewTrainerWithEngine wires a trainer onto an already constructed (but not
// yet started) communication engine — any CommEngine implementation,
// including the parameter-server baseline (baseline.PSEngine). It registers
// the producer's parameters, starts the engine and, if the engine supports
// broadcasting, distributes rank 0's initial parameters so all workers
// begin identically.
func NewTrainerWithEngine(eng CommEngine, producer Producer, opt optimizer.Optimizer) (*Trainer, error) {
	if eng == nil || producer == nil || opt == nil {
		return nil, errors.New("train: nil engine, producer or optimizer")
	}
	params := producer.Params()
	pr, prioritized := eng.(priorityRegistrar)
	for _, p := range params {
		var err error
		if prioritized {
			err = pr.RegisterWithPriority(p.Name, p.Weight.Len(), p.Layer)
		} else {
			err = eng.Register(p.Name, p.Weight.Len())
		}
		if err != nil {
			return nil, fmt.Errorf("register %q: %w", p.Name, err)
		}
	}
	if err := eng.Start(); err != nil {
		return nil, err
	}
	if b, ok := eng.(broadcaster); ok {
		for _, p := range params {
			if err := b.Broadcast(p.Weight, 0); err != nil {
				_ = eng.Close()
				return nil, fmt.Errorf("broadcast %q: %w", p.Name, err)
			}
		}
	}
	return &Trainer{engine: eng, producer: producer, opt: opt, params: params}, nil
}

// Engine returns the underlying communication engine.
func (t *Trainer) Engine() CommEngine { return t.engine }

// StepResult reports one training iteration.
type StepResult struct {
	// Step is the 1-based iteration number.
	Step int
	// Loss is the local loss before the update.
	Loss float64
	// Elapsed is the wall-clock iteration duration.
	Elapsed time.Duration
}

// Step runs one full training iteration.
func (t *Trainer) Step() (StepResult, error) {
	start := time.Now()
	t.step++
	loss, err := t.producer.Compute(t.step)
	if err != nil {
		return StepResult{}, fmt.Errorf("step %d compute: %w", t.step, err)
	}
	// Push in reverse parameter order: backward propagation produces
	// gradients from the output layer towards the input (§II-A).
	for i := len(t.params) - 1; i >= 0; i-- {
		p := t.params[i]
		if err := t.engine.PushGradient(p.Name, p.Grad); err != nil {
			return StepResult{}, fmt.Errorf("step %d push %q: %w", t.step, p.Name, err)
		}
	}
	if err := t.engine.WaitIteration(); err != nil {
		return StepResult{}, fmt.Errorf("step %d aggregate: %w", t.step, err)
	}
	if err := t.opt.Step(t.step, t.params); err != nil {
		return StepResult{}, fmt.Errorf("step %d optimize: %w", t.step, err)
	}
	return StepResult{Step: t.step, Loss: loss, Elapsed: time.Since(start)}, nil
}

// Run executes n steps and returns their results.
func (t *Trainer) Run(n int) ([]StepResult, error) {
	results := make([]StepResult, 0, n)
	for i := 0; i < n; i++ {
		r, err := t.Step()
		if err != nil {
			return results, err
		}
		results = append(results, r)
	}
	return results, nil
}

// Close shuts down the engine.
func (t *Trainer) Close() error { return t.engine.Close() }

// MLPProducer adapts a real MLP plus a minibatch generator into a Producer.
type MLPProducer struct {
	mlp *MLP
	gen func(step int) (inputs, targets [][]float32)
}

var _ Producer = (*MLPProducer)(nil)

// NewMLPProducer wraps mlp with a per-step minibatch generator. The
// generator should return this worker's shard of the global batch.
func NewMLPProducer(mlp *MLP, gen func(step int) ([][]float32, [][]float32)) (*MLPProducer, error) {
	if mlp == nil || gen == nil {
		return nil, errors.New("train: nil mlp or generator")
	}
	return &MLPProducer{mlp: mlp, gen: gen}, nil
}

// Params implements Producer.
func (p *MLPProducer) Params() []optimizer.Param { return p.mlp.Params() }

// Compute implements Producer.
func (p *MLPProducer) Compute(step int) (float64, error) {
	inputs, targets := p.gen(step)
	return p.mlp.Backward(inputs, targets)
}

// SyntheticProducer allocates real weight/gradient tensors for a zoo model
// and fills gradients with deterministic rank-dependent values. It exercises
// the full live communication path (registration, packing, multi-stream
// all-reduce, averaging) with authentic tensor sizes, without the compute
// cost of real kernels. Use small models for tests; BERT-scale models
// allocate gigabytes.
type SyntheticProducer struct {
	rank   int
	params []optimizer.Param
}

var _ Producer = (*SyntheticProducer)(nil)

// NewSyntheticProducer allocates tensors for every parameter of m.
func NewSyntheticProducer(m model.Model, rank int) *SyntheticProducer {
	flat := m.Params()
	sp := &SyntheticProducer{rank: rank, params: make([]optimizer.Param, 0, len(flat))}
	for _, p := range flat {
		sp.params = append(sp.params, optimizer.Param{
			Name:   p.Name,
			Weight: tensor.New(p.Elems),
			Grad:   tensor.New(p.Elems),
			Layer:  p.Layer,
		})
	}
	return sp
}

// Params implements Producer.
func (p *SyntheticProducer) Params() []optimizer.Param { return p.params }

// Compute implements Producer. Gradient element j of parameter i takes the
// deterministic value sin(step + i + j·1e-3) + rank·1e-2, so the averaged
// result is exactly verifiable.
func (p *SyntheticProducer) Compute(step int) (float64, error) {
	for i, param := range p.params {
		g := param.Grad.Data()
		base := float64(step) + float64(i)
		for j := range g {
			g[j] = float32(math.Sin(base+float64(j)*1e-3) + float64(p.rank)*1e-2)
		}
	}
	return 1 / float64(step), nil
}

// ExpectedMean returns the gradient value all workers should hold after
// averaging across `size` workers, for element j of parameter i at the
// given step.
func ExpectedMean(step, i, j, size int) float32 {
	base := math.Sin(float64(step) + float64(i) + float64(j)*1e-3)
	rankMean := float64(size-1) / 2 * 1e-2
	return float32(base + rankMean)
}
