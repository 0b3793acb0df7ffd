// Command aiacc-autotune runs the §VI communication-parameter search for one
// deployment on the cluster simulator: the multi-armed-bandit meta solver
// allocates the tuning budget among grid search, population based training,
// Bayesian optimization and Hyperband, and prints the full evaluation trace
// plus the chosen setting.
//
// Usage:
//
//	aiacc-autotune -model resnet50 -gpus 64
//	aiacc-autotune -model bertlarge -gpus 16 -budget 100 -trace
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"aiacc/autotune"
	"aiacc/cluster"
	"aiacc/model"
	"aiacc/netmodel"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "aiacc-autotune:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		modelName = flag.String("model", "resnet50", "workload model")
		gpus      = flag.Int("gpus", 64, "total GPUs (8 per node)")
		budget    = flag.Int("budget", 100, "tuning budget in training iterations (paper default 100)")
		seed      = flag.Int64("seed", 42, "search ensemble seed")
		showTrace = flag.Bool("trace", false, "print every candidate evaluation")
	)
	flag.Parse()

	m, err := model.ByName(*modelName)
	if err != nil {
		return err
	}
	fmt.Printf("tuning %s on %d GPUs (budget %d iterations)\n", m.Name, *gpus, *budget)

	base := cluster.Config{
		Topology: netmodel.V100Cluster(*gpus),
		GPU:      cluster.V100(),
		Model:    m,
		Engine:   cluster.EngineDefaults(cluster.AIACC),
	}
	space := autotune.DefaultSpace().ForSimulator(base.Topology)
	meta, err := autotune.NewMeta(autotune.DefaultEnsemble(space, *seed))
	if err != nil {
		return err
	}
	best, err := meta.Tune(autotune.SimEvaluator(base), *budget)
	if err != nil {
		return err
	}

	if *showTrace {
		fmt.Println("\ntrace:")
		for i, r := range meta.Trace() {
			marker := " "
			if r.NewBest {
				marker = "*"
			}
			fmt.Printf("%s %3d  %-9s  %-42v  %2d iters  %8.2fms/iter\n",
				marker, i+1, r.Searcher, r.Params, r.Iters, r.Cost*1e3)
		}
	}

	// Report the chosen setting against the untuned engine defaults.
	defRes, err := cluster.Simulate(base)
	if err != nil {
		return err
	}
	tuned := base
	tuned.Engine.Policy = best.Apply(base.Engine.Policy)
	bestRes, err := cluster.Simulate(tuned)
	if err != nil {
		return err
	}
	_, bestCost := meta.Best()
	fmt.Printf("\nbest: %v (%.2fms/iter during search)\n", best, bestCost*1e3)
	fmt.Printf("default config: %v/iter, %.0f samples/s\n",
		defRes.IterTime.Round(time.Microsecond), defRes.Throughput)
	fmt.Printf("tuned config:   %v/iter, %.0f samples/s (%.2fx)\n",
		bestRes.IterTime.Round(time.Microsecond), bestRes.Throughput,
		bestRes.Throughput/defRes.Throughput)
	return nil
}
