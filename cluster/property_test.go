package cluster

import (
	"math/rand"
	"testing"

	"aiacc/engine"
	"aiacc/model"
	"aiacc/netmodel"
)

// Physical sanity invariants that must hold for every configuration the
// simulator accepts: these are checked over randomized deployments.

func randomConfig(rng *rand.Rand) Config {
	models := []model.Model{
		model.TinyMLP(), model.ResNet50(), model.VGG16(), model.TransformerBase(),
	}
	kinds := []EngineKind{AIACC, Horovod, PyTorchDDP, BytePS, MXNetPS}
	gpuChoices := []int{1, 4, 8, 16, 32, 64, 128}
	cfg := Config{
		Topology:    netmodel.V100Cluster(gpuChoices[rng.Intn(len(gpuChoices))]),
		GPU:         V100(),
		Model:       models[rng.Intn(len(models))],
		BatchPerGPU: 1 << uint(rng.Intn(7)),
		Engine:      EngineDefaults(kinds[rng.Intn(len(kinds))]),
	}
	cfg.Engine.Streams = 1 + rng.Intn(24)
	cfg.Engine.GranularityBytes = int64(1) << uint(16+rng.Intn(11))
	if cfg.Engine.Kind == AIACC {
		if rng.Intn(2) != 0 {
			cfg.Engine.Coordinator = engine.Master
		}
		if rng.Intn(2) == 0 {
			cfg.Engine.Algorithm = engine.Hierarchical
			cfg.Engine.GPUsPerNode = cfg.Topology.GPUsPerNode
		}
	}
	if rng.Intn(3) == 0 {
		cfg.Engine.WireBytesPerElem = 2
	}
	return cfg
}

func TestRandomConfigInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 120; trial++ {
		cfg := randomConfig(rng)
		res, err := Simulate(cfg)
		if err != nil {
			t.Fatalf("trial %d (%+v): %v", trial, cfg.Engine, err)
		}
		// Iteration time can never beat pure compute.
		if res.IterTime < res.ComputeTime {
			t.Fatalf("trial %d: iter %v < compute %v", trial, res.IterTime, res.ComputeTime)
		}
		if res.Throughput <= 0 || res.PerGPU <= 0 {
			t.Fatalf("trial %d: non-positive throughput %+v", trial, res)
		}
		// Per-GPU throughput can never exceed the single-GPU bound.
		one := cfg.Engine
		one.GPUsPerNode = 1 // the single GPU's node
		single, err := Simulate(Config{
			Topology:    netmodel.V100Cluster(1),
			GPU:         cfg.GPU,
			Model:       cfg.Model,
			BatchPerGPU: cfg.BatchPerGPU,
			Engine:      one,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.PerGPU > single.PerGPU*1.0001 {
			t.Fatalf("trial %d: per-GPU %v exceeds single-GPU bound %v", trial, res.PerGPU, single.PerGPU)
		}
		if res.ExposedComm < 0 || res.NICUtilization < 0 || res.NICUtilization > 1 {
			t.Fatalf("trial %d: bad metrics %+v", trial, res)
		}
	}
}

// More inter-node bandwidth can never hurt.
func TestBandwidthMonotonicity(t *testing.T) {
	prev := 0.0
	for _, gbps := range []float64{5, 10, 20, 30, 60, 100} {
		cfg := Config{
			Topology: netmodel.V100Cluster(32),
			GPU:      V100(),
			Model:    model.VGG16(),
			Engine:   EngineDefaults(AIACC),
		}
		cfg.Topology.Inter.CapacityGbps = gbps
		res, err := Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Throughput < prev-1e-9 {
			t.Fatalf("throughput decreased at %v Gbps: %v < %v", gbps, res.Throughput, prev)
		}
		prev = res.Throughput
	}
}

// A faster GPU can never reduce throughput.
func TestComputeMonotonicity(t *testing.T) {
	prev := 0.0
	for _, flops := range []float64{3e12, 6e12, 9e12, 15e12} {
		cfg := Config{
			Topology: netmodel.V100Cluster(16),
			GPU:      GPU{Name: "x", FLOPS: flops, StreamsBusy: 8, StreamsIdle: 24},
			Model:    model.ResNet50(),
			Engine:   EngineDefaults(AIACC),
		}
		res, err := Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Throughput < prev-1e-9 {
			t.Fatalf("throughput decreased at %v FLOPS", flops)
		}
		prev = res.Throughput
	}
}

// fp16 halves the wire bytes but pays a codec pass; wire-pipelining segments
// hide all but the fill share of that pass, so fp16 may trail fp32 only by a
// small codec-exposure margin — and never when communication dominates.
func TestCompressionNeverHurts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		cfg := randomConfig(rng)
		cfg.Engine.WireBytesPerElem = 4
		fp32, err := Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Engine.WireBytesPerElem = 2
		fp16, err := Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if fp16.Throughput < fp32.Throughput*0.97 {
			t.Fatalf("trial %d: fp16 (%v) worse than fp32 (%v) for %+v",
				trial, fp16.Throughput, fp32.Throughput, cfg.Engine)
		}
	}
}

// Larger per-GPU batches always raise samples/s (compute amortizes fixed
// communication).
func TestBatchMonotonicity(t *testing.T) {
	prev := 0.0
	for _, batch := range []int{1, 2, 4, 8, 16, 32} {
		cfg := Config{
			Topology:    netmodel.V100Cluster(16),
			GPU:         V100(),
			Model:       model.BERTLarge(),
			BatchPerGPU: batch,
			Engine:      EngineDefaults(AIACC),
		}
		res, err := Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Throughput < prev-1e-9 {
			t.Fatalf("throughput decreased at batch %d", batch)
		}
		prev = res.Throughput
	}
}
