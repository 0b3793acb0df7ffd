// Elastic deployment and fault tolerance (§IV "Other features"), now driven
// by a real failure instead of a staged one:
//
//  1. Three workers train an MLP through the AIACC engine over a real TCP
//     mesh wrapped in the chaos fault-injection transport, checkpointing
//     every few steps with the atomic checkpoint manager.
//
//  2. Mid-iteration, one rank is chaos-killed. The survivors do not hang:
//     their collectives unwind with a *classified* peer failure
//     (transport.ErrPeerFailed), the signal the recovery path keys on.
//
//  3. The cluster rebuilds: a fresh TCP mesh comes up with the dead rank
//     restarted from nothing. Rank 0 restores the latest checkpoint and
//     fault.SyncParameters broadcasts both the parameters and the resume
//     step to every worker — the elastic-join path — then training resumes.
//
//  4. Because the synthetic data is a pure function of (rank, step) and the
//     optimizer is stateless SGD, the recovered run is bit-identical to a
//     reference run that never crashed — which the example verifies.
//
//     go run ./examples/elastic
package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"sync"
	"time"

	"aiacc/fault"
	"aiacc/optimizer"
	"aiacc/perseus"
	"aiacc/tensor"
	"aiacc/train"
	"aiacc/transport"
	"aiacc/transport/chaos"
)

const (
	workers    = 3
	victim     = 1
	totalSteps = 16
	crashStep  = 9
	mlpSeed    = 3
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "elastic:", err)
		os.Exit(1)
	}
}

func run() error {
	ckptDir, err := os.MkdirTemp("", "aiacc-elastic-")
	if err != nil {
		return err
	}
	defer func() { _ = os.RemoveAll(ckptDir) }()
	manager, err := fault.NewManager(ckptDir, 3)
	if err != nil {
		return err
	}

	fmt.Println("reference: uninterrupted run on 3 workers (for the bit-identical check)")
	reference, err := trainPhase(totalSteps, -1, nil, false)
	if err != nil {
		return err
	}

	fmt.Println("\nphase 1: training on 3 workers over chaos-wrapped TCP with periodic checkpoints")
	if _, err := trainPhase(totalSteps, crashStep, manager, false); err != nil {
		return err
	}

	ck, err := manager.Latest()
	if err != nil {
		return err
	}
	fmt.Printf("\n--- simulated node failure: rank %d chaos-killed at step %d; latest checkpoint is step %d ---\n\n",
		victim, crashStep, ck.Step)

	fmt.Println("phase 2: rebuild the mesh, restore the checkpoint, SyncParameters, resume")
	recovered, err := trainPhase(totalSteps, -1, manager, true)
	if err != nil {
		return err
	}

	identical := true
	for name, want := range reference {
		got := recovered[name]
		for i := range want {
			if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
				identical = false
			}
		}
	}
	fmt.Printf("\nrecovered parameters bit-identical to the uninterrupted run: %v\n", identical)
	if !identical {
		return fmt.Errorf("recovery diverged from the reference run")
	}
	return nil
}

// trainPhase runs the worker group to totalSteps over a chaos-wrapped TCP
// mesh. If crashStep > 0, the victim kills itself there and the phase returns
// nil after the survivors have observed classified failures. With restore set,
// rank 0 loads the latest checkpoint and the group elastic-joins through
// fault.SyncParameters before stepping. It returns rank 0's final parameters.
func trainPhase(steps, crashStep int, manager *fault.Manager, restore bool) (map[string][]float32, error) {
	opts := []perseus.Option{perseus.WithStreams(2), perseus.WithGranularity(32 << 10)}
	streams, err := perseus.RequiredStreams(opts...)
	if err != nil {
		return nil, err
	}
	inner, err := transport.NewTCP(workers, streams,
		transport.WithOpTimeout(2*time.Second),
		transport.WithHeartbeat(50*time.Millisecond))
	if err != nil {
		return nil, err
	}
	net := chaos.Wrap(inner, chaos.NewPlan(1))
	defer func() { _ = net.Close() }()

	finals := make([]map[string][]float32, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for r := 0; r < workers; r++ {
		ep, err := net.Endpoint(r)
		if err != nil {
			return nil, err
		}
		wg.Add(1)
		go func(rank int, ep transport.Endpoint) {
			defer wg.Done()
			finals[rank], errs[rank] = workerPhase(rank, ep, net, opts, steps, crashStep, manager, restore)
		}(r, ep)
	}
	wg.Wait()

	if crashStep > 0 {
		// The survivors must have failed — with a classified peer failure,
		// not a hang and not an arbitrary error.
		for r, err := range errs {
			if r == victim {
				continue
			}
			if err == nil {
				return nil, fmt.Errorf("rank %d finished despite rank %d's death", r, victim)
			}
			if !transport.IsCommFailure(err) {
				return nil, fmt.Errorf("rank %d: unclassified failure: %w", r, err)
			}
			fmt.Printf("rank %d observed a classified peer failure: %v\n", r, err)
		}
		return nil, nil
	}
	for r, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return finals[0], nil
}

func workerPhase(rank int, ep transport.Endpoint, net *chaos.Network, opts []perseus.Option,
	steps, crashStep int, manager *fault.Manager, restore bool) (map[string][]float32, error) {
	session, err := perseus.NewSession(ep, opts...)
	if err != nil {
		return nil, err
	}
	defer func() { _ = session.Close() }()

	mlp, err := train.NewMLP(mlpSeed, 4, 16, 1)
	if err != nil {
		return nil, err
	}
	params := mlp.Params()
	if err := session.RegisterParams(params); err != nil {
		return nil, err
	}
	if err := session.Start(); err != nil {
		return nil, err
	}

	byName := make(map[string]*tensor.Tensor, len(params))
	for _, p := range params {
		byName[p.Name] = p.Weight
	}

	startStep := 0
	if restore {
		// Only rank 0 reads the checkpoint (the restarted worker may not even
		// have the file); SyncParameters broadcasts rank 0's parameters *and*
		// step so every worker — old or new — resumes from the same point.
		if rank == 0 {
			ck, err := manager.Latest()
			if err != nil {
				return nil, err
			}
			if err := ck.Restore(byName); err != nil {
				return nil, err
			}
			startStep = ck.Step
			fmt.Printf("rank 0 restored checkpoint at step %d\n", ck.Step)
		}
		startStep, err = fault.SyncParameters(session.Engine(), byName, 0, startStep)
		if err != nil {
			return nil, err
		}
	}

	// Stateless SGD: all training state lives in the parameters, so a restore
	// plus SyncParameters fully determines the rest of the trajectory.
	sgd, err := optimizer.NewSGD(optimizer.Const(0.05), 0, 0)
	if err != nil {
		return nil, err
	}
	opt := session.DistributedOptimizer(sgd)

	for step := startStep + 1; step <= steps; step++ {
		if step == crashStep && rank == victim {
			net.Kill(rank) // chaos: this rank is gone mid-iteration
			return nil, nil
		}
		const batch = 8
		// Data is a pure function of (rank, step), so re-running a step after
		// recovery reproduces it exactly.
		rng := rand.New(rand.NewSource(int64(rank*100_000 + step)))
		ins := make([][]float32, batch)
		outs := make([][]float32, batch)
		for i := range ins {
			x := []float32{rng.Float32(), rng.Float32(), rng.Float32(), rng.Float32()}
			ins[i] = x
			outs[i] = []float32{x[0] - x[2]}
		}
		loss, err := mlp.Backward(ins, outs)
		if err != nil {
			return nil, err
		}
		if err := opt.Step(step, params); err != nil {
			return nil, err
		}
		if rank == 0 && manager != nil {
			if step%4 == 0 {
				if err := manager.Save(fault.Snapshot(step, byName, map[string]string{"phase": "demo"})); err != nil {
					return nil, err
				}
				fmt.Printf("step %3d  loss %.5f  (checkpoint saved)\n", step, loss)
			} else if step%2 == 0 {
				fmt.Printf("step %3d  loss %.5f\n", step, loss)
			}
		}
	}
	out := make(map[string][]float32, len(byName))
	for name, t := range byName {
		vals := make([]float32, t.Len())
		copy(vals, t.Data())
		out[name] = vals
	}
	return out, nil
}
