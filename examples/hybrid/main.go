// Hybrid data+model parallelism, live (the setting of the paper's Fig. 13):
// six workers hold a model split into two shards — global ranks {0,2,4}
// replicate shard A, ranks {1,3,5} replicate shard B. Each shard's replicas
// form their own data-parallel group over a sub-communicator and run an
// independent AIACC engine; gradient aggregation happens *within* each shard
// group, concurrently, over the same transport.
//
//	go run ./examples/hybrid
package main

import (
	"fmt"
	"os"
	"sync"

	"aiacc/engine"
	"aiacc/mpi"
	"aiacc/tensor"
	"aiacc/transport"
)

const (
	workers = 6
	shards  = 2
	iters   = 5
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hybrid:", err)
		os.Exit(1)
	}
}

// shardGroup returns the global ranks replicating the given shard.
func shardGroup(shard int) []int {
	var g []int
	for r := shard; r < workers; r += shards {
		g = append(g, r)
	}
	return g
}

// shardParams returns the parameter layout owned by a shard: the model is
// split by layers, so the shards have different tensors.
func shardParams(shard int) map[string]int {
	if shard == 0 {
		return map[string]int{"conv1.weight": 9408, "conv2.weight": 36864, "conv2.bn": 128}
	}
	return map[string]int{"fc1.weight": 262144, "fc1.bias": 512, "fc2.weight": 5120}
}

func run() error {
	cfg := engine.DefaultConfig()
	cfg.Streams = 2
	cfg.GranularityBytes = 64 << 10
	cfg.MinSyncBytes = 64 << 10

	net, err := transport.NewMem(workers, cfg.RequiredStreams())
	if err != nil {
		return err
	}
	defer func() { _ = net.Close() }()

	fmt.Printf("%d workers, %d model shards; shard groups: %v and %v\n",
		workers, shards, shardGroup(0), shardGroup(1))

	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for r := 0; r < workers; r++ {
		ep, err := net.Endpoint(r)
		if err != nil {
			return err
		}
		wg.Add(1)
		go func(rank int, ep transport.Endpoint) {
			defer wg.Done()
			if err := worker(rank, ep, cfg); err != nil {
				errc <- fmt.Errorf("rank %d: %w", rank, err)
			}
		}(r, ep)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		return err
	}
	fmt.Println("\nboth shard groups aggregated independently and concurrently — Fig. 13's hybrid scheme, live")
	return nil
}

func worker(rank int, ep transport.Endpoint, cfg engine.Config) error {
	world := mpi.NewWorld(ep)
	defer world.Close()
	shard := rank % shards
	group, err := world.Subgroup(shardGroup(shard))
	if err != nil {
		return err
	}
	eng, err := engine.NewEngine(group, cfg)
	if err != nil {
		return err
	}
	defer func() { _ = eng.Close() }()

	params := shardParams(shard)
	grads := make(map[string]*tensor.Tensor, len(params))
	for name, elems := range params {
		if err := eng.Register(name, elems); err != nil {
			return err
		}
		grads[name] = tensor.New(elems)
	}
	if err := eng.Start(); err != nil {
		return err
	}

	replicas := len(shardGroup(shard))
	for it := 1; it <= iters; it++ {
		for _, g := range grads {
			g.Fill(float32(rank + it))
		}
		for name, g := range grads {
			if err := eng.PushGradient(name, g); err != nil {
				return err
			}
		}
		if err := eng.WaitIteration(); err != nil {
			return err
		}
		// The average must cover exactly this shard's replicas.
		var want float32
		for _, gr := range shardGroup(shard) {
			want += float32(gr + it)
		}
		want /= float32(replicas)
		for name, g := range grads {
			if g.At(0) != want {
				return fmt.Errorf("iter %d %s: avg %v, want %v (shard cross-talk?)", it, name, g.At(0), want)
			}
		}
	}
	if group.Rank() == 0 {
		st := eng.Stats()
		fmt.Printf("shard %d (replicas %v): %d iterations, %d units, %s aggregated within the group\n",
			shard, shardGroup(shard), st.Iterations, st.Units, byteSize(st.BytesReduced))
	}
	return nil
}

func byteSize(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
