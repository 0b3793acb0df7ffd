// BERT fine-tuning scenario: the NLP workload where gradient communication
// dominates.
//
// Part 1 runs a *live* distributed iteration with BERT-Large's real gradient
// layout (384 tensors, 1.2 GB of fp32 gradients per worker) through the
// AIACC engine with fp16 wire compression over the in-process transport,
// measuring actual bytes moved.
//
// Part 2 reproduces the paper's Fig. 14 on the cluster simulator: AIACC's
// speedup over Horovod on 16 GPUs grows as the batch size shrinks, because
// smaller batches mean more communication per unit of computation.
//
//	go run ./examples/bert
package main

import (
	"fmt"
	"os"
	"sync"
	"text/tabwriter"
	"time"

	"aiacc/cluster"
	"aiacc/compress"
	"aiacc/engine"
	"aiacc/model"
	"aiacc/mpi"
	"aiacc/netmodel"
	"aiacc/optimizer"
	"aiacc/train"
	"aiacc/transport"
)

func main() {
	if err := liveIteration(); err != nil {
		fmt.Fprintln(os.Stderr, "bert live:", err)
		os.Exit(1)
	}
	if err := batchStudy(); err != nil {
		fmt.Fprintln(os.Stderr, "bert study:", err)
		os.Exit(1)
	}
}

// liveIteration pushes BERT-Large's true gradient tensors through the live
// engine on 2 workers with fp16 compression.
func liveIteration() error {
	bert := model.BERTLarge()
	fmt.Printf("BERT-Large: %.1fM parameters in %d gradient tensors (%.2f GiB fp32 per worker)\n",
		float64(bert.NumParams())/1e6, bert.NumGradients(), float64(bert.GradBytes())/(1<<30))

	cfg := engine.DefaultConfig()
	cfg.Streams = 8
	cfg.GranularityBytes = 8 << 20
	cfg.Codec = compress.FP16{}

	const workers = 2
	net, err := transport.NewMem(workers, cfg.RequiredStreams())
	if err != nil {
		return err
	}
	defer func() { _ = net.Close() }()

	start := time.Now()
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	var stats engine.Stats
	var mu sync.Mutex
	for r := 0; r < workers; r++ {
		ep, err := net.Endpoint(r)
		if err != nil {
			return err
		}
		wg.Add(1)
		go func(rank int, ep transport.Endpoint) {
			defer wg.Done()
			producer := train.NewSyntheticProducer(bert, rank)
			// Stateless SGD: Adam would allocate two extra model-sized
			// moment tensors per worker (another ~4.8 GiB across this
			// demo's two workers), which thrashes laptop-sized memory.
			opt, err := optimizer.NewSGD(optimizer.LinearDecay{Base: 3e-5, Final: 0, Total: 1000}, 0, 0)
			if err != nil {
				errc <- err
				return
			}
			comm := mpi.NewWorld(ep)
			defer comm.Close()
			tr, err := train.NewTrainer(comm, cfg, producer, opt)
			if err != nil {
				errc <- err
				return
			}
			defer func() { _ = tr.Close() }()
			if _, err := tr.Step(); err != nil {
				errc <- err
				return
			}
			if rank == 0 {
				if ae, ok := tr.Engine().(*engine.Engine); ok {
					mu.Lock()
					stats = ae.Stats()
					mu.Unlock()
				}
			}
		}(r, ep)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		return err
	}
	fmt.Printf("live fine-tuning step on %d workers: %v wall, %d sync rounds, %d all-reduce units, %.2f GiB reduced (fp16 wire)\n\n",
		workers, time.Since(start).Round(time.Millisecond), stats.SyncRounds, stats.Units,
		float64(stats.BytesReduced)/(1<<30))
	return nil
}

// batchStudy reproduces Fig. 14 on the simulator.
func batchStudy() error {
	fmt.Println("Fig. 14 reproduction: speedup over Horovod vs batch size, BERT-Large, 16 GPUs")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "batch/gpu\taiacc seq/s\thorovod seq/s\tspeedup")
	for _, batch := range []int{2, 4, 8, 16, 32} {
		ai, err := simulateBERT(cluster.AIACC, batch)
		if err != nil {
			return err
		}
		hv, err := simulateBERT(cluster.Horovod, batch)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%d\t%.1f\t%.1f\t%.2fx\n", batch, ai.Throughput, hv.Throughput,
			ai.Throughput/hv.Throughput)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Println("paper shape: the advantage grows as the batch shrinks (more frequent communication).")
	return nil
}

func simulateBERT(kind cluster.EngineKind, batch int) (cluster.Result, error) {
	return cluster.Simulate(cluster.Config{
		Topology:    netmodel.V100Cluster(16),
		GPU:         cluster.V100(),
		Model:       model.BERTLarge(),
		BatchPerGPU: batch,
		Engine:      cluster.EngineDefaults(kind),
	})
}
