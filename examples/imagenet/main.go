// ImageNet scaling study: reproduce the paper's headline CV result on the
// cluster simulator — ResNet-50 and VGG-16 throughput from 1 to 256 V100
// GPUs, AIACC (auto-tuned) against Horovod, PyTorch-DDP and BytePS, on the
// 30 Gbps VPC of the paper's evaluation platform.
//
//	go run ./examples/imagenet
package main

import (
	"fmt"
	"os"
	"text/tabwriter"

	"aiacc/autotune"
	"aiacc/cluster"
	"aiacc/model"
	"aiacc/netmodel"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "imagenet:", err)
		os.Exit(1)
	}
}

func run() error {
	for _, m := range []model.Model{model.ResNet50(), model.VGG16()} {
		fmt.Printf("=== %s (%.1fM params, batch %d/GPU, ImageNet-shaped input) ===\n",
			m.Name, float64(m.NumParams())/1e6, m.DefaultBatch)
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "gpus\taiacc img/s\thorovod\tpytorch-ddp\tbyteps\taiacc eff\taiacc params")

		single, err := cluster.Simulate(deployment(m, 1, cluster.AIACC))
		if err != nil {
			return err
		}
		for _, gpus := range []int{1, 8, 16, 32, 64, 128, 256} {
			tuned, ai, err := tune(deployment(m, gpus, cluster.AIACC))
			if err != nil {
				return err
			}
			hv, err := cluster.Simulate(deployment(m, gpus, cluster.Horovod))
			if err != nil {
				return err
			}
			dd, err := cluster.Simulate(deployment(m, gpus, cluster.PyTorchDDP))
			if err != nil {
				return err
			}
			bp, err := cluster.Simulate(deployment(m, gpus, cluster.BytePS))
			if err != nil {
				return err
			}
			eff := ai.Throughput / (float64(gpus) * single.Throughput)
			fmt.Fprintf(w, "%d\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f%%\t%v\n",
				gpus, ai.Throughput, hv.Throughput, dd.Throughput, bp.Throughput, eff*100, tuned)
		}
		if err := w.Flush(); err != nil {
			return err
		}
		fmt.Println()
	}
	fmt.Println("paper shape: AIACC ≥95% efficiency on ResNet-50@256; VGG-16 (communication-bound)")
	fmt.Println("shows the largest gap; BytePS without extra CPU servers trails everything.")
	return nil
}

// tune runs a short §VI parameter search for the deployment and simulates
// the setting it picks.
func tune(base cluster.Config) (autotune.Params, cluster.Result, error) {
	meta, err := autotune.NewMeta(autotune.DefaultEnsemble(autotune.DefaultSpace().ForSimulator(base.Topology), 42))
	if err != nil {
		return autotune.Params{}, cluster.Result{}, err
	}
	p, err := meta.Tune(autotune.SimEvaluator(base), 40)
	if err != nil {
		return p, cluster.Result{}, err
	}
	cfg := base
	cfg.Engine.Policy = p.Apply(base.Engine.Policy)
	res, err := cluster.Simulate(cfg)
	return p, res, err
}

// deployment is the engine's default configuration on gpus V100s.
func deployment(m model.Model, gpus int, kind cluster.EngineKind) cluster.Config {
	return cluster.Config{
		Topology: netmodel.V100Cluster(gpus),
		GPU:      cluster.V100(),
		Model:    m,
		Engine:   cluster.EngineDefaults(kind),
	}
}
