package train

import (
	"errors"
	"fmt"
	"time"

	"aiacc/autotune"
	"aiacc/collective"
	"aiacc/compress"
	"aiacc/engine"
	"aiacc/mpi"
	"aiacc/optimizer"
	"aiacc/tensor"
)

// ErrBadTune indicates invalid live-tuning arguments.
var ErrBadTune = errors.New("train: bad tuning arguments")

// TuneResult reports a completed live warm-up tuning run.
type TuneResult struct {
	// Best is the selected communication parameter setting.
	Best autotune.Params
	// BestCost is its measured seconds per training iteration.
	BestCost float64
	// Trials is the number of candidate settings evaluated.
	Trials int
	// StepsDone is the number of real training iterations consumed — these
	// contributed to model convergence (§VI: "no computation cycle is
	// wasted").
	StepsDone int
}

// TuneLive performs the paper's warm-up auto-tuning (§VI) on live training:
// the MAB meta-solver proposes communication settings, each candidate runs
// real training iterations through a freshly configured engine, and the
// measured per-iteration cost — *averaged across all workers with a
// collective all-reduce* so every rank observes identical numbers and makes
// identical decisions — feeds the search. The training work done during
// tuning is real: gradients are aggregated and the optimizer steps, so the
// budget contributes to convergence.
//
// All workers must call TuneLive collectively with the same base config,
// space, budget and seed. The search covers the space's node groups that
// divide the world size (autotune.Space.ForWorld). The communicator must
// provide enough transport streams for the largest stream count in the
// space (plus the sync stream). Returns the chosen parameters; the caller
// then builds its production Trainer with them (autotune.Params.Apply).
func TuneLive(comm *mpi.Comm, base engine.Config, space autotune.Space, budget int,
	producer Producer, opt OptimizerFactory, seed int64) (TuneResult, error) {
	var out TuneResult
	if comm == nil || producer == nil || opt == nil {
		return out, fmt.Errorf("%w: nil argument", ErrBadTune)
	}
	space = space.ForWorld(comm.Size())
	if err := space.Validate(); err != nil {
		return out, err
	}
	maxStreams := space.Streams[len(space.Streams)-1]
	if comm.Streams() < maxStreams+1 {
		return out, fmt.Errorf("%w: transport has %d streams, space needs %d",
			ErrBadTune, comm.Streams(), maxStreams+1)
	}

	meta, err := autotune.NewMeta(autotune.DefaultEnsemble(space, seed))
	if err != nil {
		return out, err
	}
	var evalErr error
	eval := func(p autotune.Params, iters int) float64 {
		if evalErr != nil {
			return 1e9
		}
		cost, err := evalCandidate(comm, base, p, iters, producer, opt)
		if err != nil {
			evalErr = err
			return 1e9
		}
		out.Trials++
		out.StepsDone += iters
		return cost
	}
	best, err := meta.Tune(eval, budget)
	if err != nil {
		return out, err
	}
	if evalErr != nil {
		return out, evalErr
	}
	out.Best = best
	_, out.BestCost = meta.Best()
	return out, nil
}

// OptimizerFactory returns the optimizer to use for a candidate evaluation.
// Returning the same instance every time preserves optimizer state
// (momentum, Adam moments) across candidates, keeping the warm-up training
// coherent.
type OptimizerFactory func() optimizer.Optimizer

// evalCandidate runs `iters` real training steps under setting p and returns
// the globally averaged seconds per iteration.
func evalCandidate(comm *mpi.Comm, base engine.Config, p autotune.Params, iters int,
	producer Producer, opt OptimizerFactory) (float64, error) {
	cfg := base
	cfg.Policy = p.Apply(base.Policy)
	tr, err := NewTrainer(comm, cfg, producer, opt())
	if err != nil {
		return 0, fmt.Errorf("candidate %v: %w", p, err)
	}
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := tr.Step(); err != nil {
			_ = tr.Close()
			return 0, fmt.Errorf("candidate %v step: %w", p, err)
		}
	}
	elapsed := time.Since(start).Seconds() / float64(iters)
	if err := tr.Close(); err != nil {
		return 0, fmt.Errorf("candidate %v close: %w", p, err)
	}
	// Agree on the cost: all-reduce the local measurement to its mean so
	// every rank's meta-solver sees the same value and the ensemble stays
	// in lockstep.
	buf := []float32{float32(elapsed)}
	if err := collective.RingAllReduceCodec(comm, 0, buf, tensor.OpSum, compress.FP32{}); err != nil {
		return 0, fmt.Errorf("candidate %v cost agreement: %w", p, err)
	}
	return float64(buf[0]) / float64(comm.Size()), nil
}

// LiveSpace is the space aiacc-run -autotune searches: small enough that a
// warm-up of a dozen iterations covers a useful share of it.
func LiveSpace() autotune.Space {
	return autotune.Space{
		Streams:       []int{1, 2, 4, 8},
		Granularities: []int64{256 << 10, 1 << 20, 4 << 20},
		Algorithms:    []string{autotune.AlgoRing, autotune.AlgoTree},
		Segments:      []int64{64 << 10, 128 << 10, 512 << 10},
		NodeGroups:    []int{1, 2, 4},
		Depths:        []int{1, 2},
	}
}
