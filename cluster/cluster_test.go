package cluster

import (
	"errors"
	"testing"

	"aiacc/engine"
	"aiacc/internal/gradsync"
	"aiacc/internal/packing"
	"aiacc/model"
	"aiacc/netmodel"
)

// simOrFatal runs a simulation and fails the test on error.
func simOrFatal(t *testing.T, cfg Config) Result {
	t.Helper()
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if res.IterTime <= 0 || res.Throughput <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	return res
}

// aiaccConfig returns an AIACC deployment on the paper's platform.
func aiaccConfig(gpus int, m model.Model) Config {
	return Config{
		Topology: netmodel.V100Cluster(gpus),
		GPU:      V100(),
		Model:    m,
		Engine:   EngineDefaults(AIACC),
	}
}

func baselineConfig(gpus int, m model.Model, kind EngineKind) Config {
	return Config{
		Topology: netmodel.V100Cluster(gpus),
		GPU:      V100(),
		Model:    m,
		Engine:   EngineDefaults(kind),
	}
}

// scalingEfficiency computes T_N/(N·T_1) for a config generator.
func scalingEfficiency(t *testing.T, gpus int, mk func(int) Config) float64 {
	t.Helper()
	single := simOrFatal(t, mk(1))
	multi := simOrFatal(t, mk(gpus))
	return multi.Throughput / (float64(gpus) * single.PerGPU)
}

// The simulator's own checks: hardware, model and engine kind. The policy's
// rules are TestPolicyValidation's.
func TestValidation(t *testing.T) {
	rn50 := model.ResNet50()
	badKind := EngineDefaults(AIACC)
	badKind.Kind = 99
	bad := []Config{
		{}, // empty
		{Topology: netmodel.V100Cluster(8), Model: rn50, Engine: EngineDefaults(AIACC)}, // no GPU
		{Topology: netmodel.V100Cluster(8), GPU: V100(), Model: rn50},                   // no engine
		{Topology: netmodel.V100Cluster(8), GPU: V100(), Model: rn50, Engine: badKind},  // bad kind
	}
	for i, cfg := range bad {
		if _, err := Simulate(cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("bad config %d: error = %v, want ErrBadConfig", i, err)
		}
	}
	// Bad wire width.
	cfg := aiaccConfig(8, rn50)
	cfg.Engine.WireBytesPerElem = 3
	if _, err := Simulate(cfg); !errors.Is(err, ErrBadConfig) {
		t.Errorf("wire width error = %v", err)
	}
	// Model parallel shards exceeding the node.
	cfg = aiaccConfig(16, rn50)
	cfg.ModelParallelShards = 16
	if _, err := Simulate(cfg); !errors.Is(err, ErrBadConfig) {
		t.Errorf("shards error = %v", err)
	}
	// The two-level schedule is priced only at the topology's node boundary.
	cfg = aiaccConfig(32, rn50)
	cfg.Engine.Algorithm = engine.Hierarchical
	cfg.Engine.GPUsPerNode = 4
	if _, err := Simulate(cfg); !errors.Is(err, ErrBadConfig) {
		t.Errorf("node group error = %v", err)
	}
	// The baselines run the flat ring under a master coordinator: the tree
	// and the decentralized protocol are AIACC's.
	for _, kind := range []EngineKind{Horovod, PyTorchDDP, BytePS, MXNetPS} {
		cfg = baselineConfig(32, rn50, kind)
		cfg.Engine.Algorithm = engine.Hierarchical
		cfg.Engine.GPUsPerNode = cfg.Topology.GPUsPerNode
		if _, err := Simulate(cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%v under the hierarchical algorithm: error = %v, want ErrBadConfig", kind, err)
		}
		cfg = baselineConfig(32, rn50, kind)
		cfg.Engine.Coordinator = engine.Decentralized
		if _, err := Simulate(cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%v under the decentralized coordinator: error = %v, want ErrBadConfig", kind, err)
		}
	}
}

// Wire-pipelining the fp16 codec must shorten iterations: with a segment of
// a whole unit the full encode+decode pass sits on each unit's critical
// path; with smaller ones only the pipeline-fill share remains (DESIGN.md
// §6). fp32 runs carry no codec pass, so the segment size must not change
// their timing.
func TestSegmentPipeliningHidesCodec(t *testing.T) {
	rn50 := model.ResNet50()
	fp16 := func(seg int64) Config {
		cfg := aiaccConfig(16, rn50)
		cfg.Engine.WireBytesPerElem = 2
		cfg.Engine.SegmentBytes = seg
		return cfg
	}
	unit := EngineDefaults(AIACC).GranularityBytes
	whole := simOrFatal(t, fp16(unit))
	seg := simOrFatal(t, fp16(256<<10))
	if seg.IterTime >= whole.IterTime {
		t.Errorf("segmented fp16 iter %v, want < whole-chunk %v", seg.IterTime, whole.IterTime)
	}
	fp32 := func(seg int64) Config {
		cfg := aiaccConfig(16, rn50)
		cfg.Engine.SegmentBytes = seg
		return cfg
	}
	if a, b := simOrFatal(t, fp32(unit)), simOrFatal(t, fp32(256<<10)); a.IterTime != b.IterTime {
		t.Errorf("fp32 timing must ignore segments: %v vs %v", a.IterTime, b.IterTime)
	}
}

func TestSingleGPUHasNoComm(t *testing.T) {
	res := simOrFatal(t, aiaccConfig(1, model.ResNet50()))
	if res.Units != 0 || res.SyncRounds != 0 || res.ExposedComm != 0 {
		t.Errorf("single GPU: %+v", res)
	}
	if res.NICBusy != 0 {
		t.Errorf("single GPU NIC busy: %v", res.NICBusy)
	}
}

// The central claim (§III): AIACC's multi-streamed communication drives the
// NIC near line rate while single-stream baselines sit at ~30%.
func TestNICUtilizationSingleVsMultiStream(t *testing.T) {
	vgg := model.VGG16() // communication-bound: the NIC is saturated
	hv := simOrFatal(t, baselineConfig(32, vgg, Horovod))
	ai := simOrFatal(t, aiaccConfig(32, vgg))
	if hv.NICUtilization > 0.31 {
		t.Errorf("Horovod NIC utilization = %.2f, want <= 0.30", hv.NICUtilization)
	}
	if ai.NICUtilization < 0.70 {
		t.Errorf("AIACC NIC utilization = %.2f, want >= 0.70", ai.NICUtilization)
	}
}

// Fig. 2: Horovod scaling efficiency on ResNet-50 degrades to roughly 75%
// at 32 GPUs; AIACC stays above 90% (§III reports >0.96).
func TestResNet50ScalingEfficiency(t *testing.T) {
	hv := scalingEfficiency(t, 32, func(g int) Config { return baselineConfig(g, model.ResNet50(), Horovod) })
	ai := scalingEfficiency(t, 32, func(g int) Config { return aiaccConfig(g, model.ResNet50()) })
	if hv < 0.60 || hv > 0.88 {
		t.Errorf("Horovod 32-GPU efficiency = %.2f, want ~0.75", hv)
	}
	if ai < 0.90 {
		t.Errorf("AIACC 32-GPU efficiency = %.2f, want >= 0.90", ai)
	}
	if ai <= hv {
		t.Errorf("AIACC (%.2f) must beat Horovod (%.2f)", ai, hv)
	}
}

// At 256 GPUs AIACC keeps ≥90% efficiency on ResNet-50 and beats Horovod by
// ~1.3-2x (paper: 95%+ efficiency, 1.68x over Horovod).
func TestResNet50At256(t *testing.T) {
	ai := scalingEfficiency(t, 256, func(g int) Config { return aiaccConfig(g, model.ResNet50()) })
	if ai < 0.88 {
		t.Errorf("AIACC 256-GPU efficiency = %.2f, want >= 0.88", ai)
	}
	hv := simOrFatal(t, baselineConfig(256, model.ResNet50(), Horovod))
	aiRes := simOrFatal(t, aiaccConfig(256, model.ResNet50()))
	speedup := aiRes.Throughput / hv.Throughput
	if speedup < 1.25 || speedup > 2.5 {
		t.Errorf("AIACC/Horovod at 256 = %.2fx, want ~1.3-2x", speedup)
	}
}

// VGG-16 is communication-bound: Horovod's efficiency collapses (~40% in the
// paper) and AIACC's advantage is larger than on ResNet-50.
func TestVGG16CommBound(t *testing.T) {
	hv := scalingEfficiency(t, 32, func(g int) Config { return baselineConfig(g, model.VGG16(), Horovod) })
	if hv > 0.60 {
		t.Errorf("Horovod VGG-16 32-GPU efficiency = %.2f, want <= 0.60", hv)
	}
	hvRes := simOrFatal(t, baselineConfig(32, model.VGG16(), Horovod))
	aiRes := simOrFatal(t, aiaccConfig(32, model.VGG16()))
	speedup := aiRes.Throughput / hvRes.Throughput
	if speedup < 1.4 {
		t.Errorf("AIACC/Horovod on VGG-16 at 32 GPUs = %.2fx, want >= 1.4x", speedup)
	}
	rnHv := simOrFatal(t, baselineConfig(32, model.ResNet50(), Horovod))
	rnAi := simOrFatal(t, aiaccConfig(32, model.ResNet50()))
	if speedup <= rnAi.Throughput/rnHv.Throughput {
		t.Error("VGG-16 advantage must exceed ResNet-50 advantage")
	}
}

// BytePS without extra CPU servers is the weakest baseline across nodes
// (§VIII-A).
func TestBytePSWeakestAcrossNodes(t *testing.T) {
	for _, m := range []model.Model{model.ResNet50(), model.VGG16()} {
		bp := simOrFatal(t, baselineConfig(64, m, BytePS))
		hv := simOrFatal(t, baselineConfig(64, m, Horovod))
		ai := simOrFatal(t, aiaccConfig(64, m))
		if bp.Throughput >= hv.Throughput {
			t.Errorf("%s: BytePS (%.0f) must trail Horovod (%.0f)", m.Name, bp.Throughput, hv.Throughput)
		}
		if bp.Throughput >= ai.Throughput {
			t.Errorf("%s: BytePS (%.0f) must trail AIACC (%.0f)", m.Name, bp.Throughput, ai.Throughput)
		}
	}
}

// Within one node (NVLink) all engines are close; the gap opens with
// multiple nodes (§VIII-A: "starts exhibiting stronger performance when
// using more than 8 GPUs").
func TestGapOpensAcrossNodes(t *testing.T) {
	gapAt := func(gpus int) float64 {
		ai := simOrFatal(t, aiaccConfig(gpus, model.ResNet50()))
		hv := simOrFatal(t, baselineConfig(gpus, model.ResNet50(), Horovod))
		return ai.Throughput / hv.Throughput
	}
	within := gapAt(8)
	across := gapAt(64)
	if within > 1.15 {
		t.Errorf("single-node gap = %.2fx, want near 1x", within)
	}
	if across <= within {
		t.Errorf("gap must grow across nodes: %.2fx vs %.2fx", across, within)
	}
}

// The master coordinator collapses on the CTR workload's thousands of
// gradient tensors; decentralized sync does not (§VIII-C reports 13.4x at
// 128 GPUs).
func TestCTRMasterBottleneck(t *testing.T) {
	ctr := model.CTR()
	hv := simOrFatal(t, baselineConfig(128, ctr, Horovod))
	ai := aiaccConfig(128, ctr)
	ai.Engine.WireBytesPerElem = 2 // production config uses compression
	aiRes := simOrFatal(t, ai)
	speedup := aiRes.Throughput / hv.Throughput
	if speedup < 5 {
		t.Errorf("AIACC/Horovod on CTR at 128 GPUs = %.1fx, want >= 5x", speedup)
	}
}

// Decentralized vs master sync ablation on AIACC itself: at large scale and
// many tensors, decentralized must win.
func TestDecentralizedAblation(t *testing.T) {
	base := aiaccConfig(128, model.CTR())
	dec := simOrFatal(t, base)
	mas := base
	mas.Engine.Coordinator = engine.Master
	masRes := simOrFatal(t, mas)
	if dec.Throughput <= masRes.Throughput {
		t.Errorf("decentralized (%.0f) must beat master (%.0f) on CTR@128",
			dec.Throughput, masRes.Throughput)
	}
}

// More streams help until the utilization ceiling; 8 streams must beat 1
// on a communication-bound model.
func TestStreamSweepMonotoneRegion(t *testing.T) {
	tput := func(streams int) float64 {
		cfg := aiaccConfig(32, model.VGG16())
		cfg.Engine.Streams = streams
		return simOrFatal(t, cfg).Throughput
	}
	t1, t4, t8 := tput(1), tput(4), tput(8)
	if t4 <= t1 || t8 <= t1 {
		t.Errorf("multi-stream must beat single: 1->%.0f 4->%.0f 8->%.0f", t1, t4, t8)
	}
	if t8 < t4*0.95 {
		t.Errorf("8 streams (%.0f) should not regress far below 4 (%.0f)", t8, t4)
	}
}

// fp16 compression halves wire volume and helps communication-bound models.
func TestFP16Compression(t *testing.T) {
	cfg := aiaccConfig(32, model.VGG16())
	fp32 := simOrFatal(t, cfg)
	cfg.Engine.WireBytesPerElem = 2
	fp16 := simOrFatal(t, cfg)
	if fp16.Throughput <= fp32.Throughput {
		t.Errorf("fp16 (%.0f) must beat fp32 (%.0f) on VGG-16", fp16.Throughput, fp32.Throughput)
	}
}

// Hierarchical all-reduce reduces NIC volume; it must be a viable algorithm
// (within 2x of ring either way on a standard setup).
func TestHierarchicalViable(t *testing.T) {
	cfg := aiaccConfig(64, model.ResNet50())
	ring := simOrFatal(t, cfg)
	cfg.Engine.Algorithm = engine.Hierarchical
	hier := simOrFatal(t, cfg)
	ratio := hier.Throughput / ring.Throughput
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("hierarchical/ring = %.2f, want within [0.5,2]", ratio)
	}
}

// On the same-machine two-tier topology (shm rings inside each simulated
// host, loopback TCP between them) the two-level hierarchical schedule must
// beat the flat pipelined ring for a communication-heavy model: most of the
// flat ring's hops cross the slow loopback path, while the hierarchy moves
// the intra share onto shm and puts strictly less volume on the TCP tier.
func TestHierarchicalWinsOnTwoTierLoopback(t *testing.T) {
	mk := func(algo engine.Algorithm) Config {
		cfg := Config{
			Topology: netmodel.TwoTierLoopback(2, 4),
			GPU:      V100(),
			Model:    model.VGG16(),
			Engine:   EngineDefaults(AIACC),
		}
		cfg.Engine.Algorithm = algo
		cfg.Engine.GPUsPerNode = cfg.Topology.GPUsPerNode
		return cfg
	}
	ring := simOrFatal(t, mk(engine.Ring))
	hier := simOrFatal(t, mk(engine.Hierarchical))
	if hier.IterTime >= ring.IterTime {
		t.Errorf("two-level %v not faster than flat ring %v on 2-host x 4-rank loopback",
			hier.IterTime, ring.IterTime)
	}
}

// In the latency-dominated regime — tiny units, so per-phase fixed costs
// dwarf bandwidth — the flat ring must win: the hierarchy pays two extra
// phase launches and its pipeline cannot fill. This is the "when" the
// autotuner's topology dimension discriminates.
func TestFlatRingWinsLatencyDominated(t *testing.T) {
	mk := func(algo engine.Algorithm) Config {
		cfg := Config{
			Topology: netmodel.TwoTierLoopback(2, 4),
			GPU:      V100(),
			Model:    model.TinyMLP(),
			Engine:   EngineDefaults(AIACC),
		}
		cfg.Engine.Algorithm = algo
		cfg.Engine.GPUsPerNode = cfg.Topology.GPUsPerNode
		cfg.Engine.GranularityBytes = 4 << 10 // tiny units: all latency
		return cfg
	}
	ring := simOrFatal(t, mk(engine.Ring))
	hier := simOrFatal(t, mk(engine.Hierarchical))
	if ring.IterTime >= hier.IterTime {
		t.Errorf("flat ring %v not faster than two-level %v in latency-dominated regime",
			ring.IterTime, hier.IterTime)
	}
}

// RDMA: higher line rate, worse single-stream efficiency — AIACC's
// multi-stream advantage over PyTorch-DDP grows (Fig. 15; GPT-2 9.8x).
func TestRDMAAdvantage(t *testing.T) {
	mkTCP := func(kind EngineKind) Config {
		cfg := baselineConfig(64, model.GPT2XL(), kind)
		if kind == AIACC {
			cfg = aiaccConfig(64, model.GPT2XL())
		}
		return cfg
	}
	mkRDMA := func(kind EngineKind) Config {
		cfg := mkTCP(kind)
		cfg.Topology = netmodel.V100RDMACluster(64)
		return cfg
	}
	tcpGap := simOrFatal(t, mkTCP(AIACC)).Throughput / simOrFatal(t, mkTCP(PyTorchDDP)).Throughput
	rdmaGap := simOrFatal(t, mkRDMA(AIACC)).Throughput / simOrFatal(t, mkRDMA(PyTorchDDP)).Throughput
	if rdmaGap < 3 {
		t.Errorf("AIACC/DDP on RDMA GPT-2 = %.1fx, want >= 3x", rdmaGap)
	}
	if rdmaGap <= tcpGap {
		t.Errorf("RDMA gap (%.1fx) must exceed TCP gap (%.1fx)", rdmaGap, tcpGap)
	}
}

// Smaller batches mean more communication per unit compute, so AIACC's edge
// over Horovod grows as batch shrinks (Fig. 14).
func TestBatchSizeTrend(t *testing.T) {
	gap := func(batch int) float64 {
		ai := aiaccConfig(16, model.BERTLarge())
		ai.BatchPerGPU = batch
		hv := baselineConfig(16, model.BERTLarge(), Horovod)
		hv.BatchPerGPU = batch
		return simOrFatal(t, ai).Throughput / simOrFatal(t, hv).Throughput
	}
	small, large := gap(2), gap(32)
	if small <= large {
		t.Errorf("small-batch gap (%.2fx) must exceed large-batch gap (%.2fx)", small, large)
	}
	if small < 1.2 {
		t.Errorf("small-batch gap = %.2fx, want >= 1.2x", small)
	}
}

// Hybrid data+model parallelism (Fig. 13): AIACC must beat the MXNet
// KVStore baseline substantially at 64 GPUs (paper: 2.8x).
func TestHybridParallelism(t *testing.T) {
	ai := aiaccConfig(64, model.ResNet50())
	ai.ModelParallelShards = 2
	mx := baselineConfig(64, model.ResNet50(), MXNetPS)
	mx.ModelParallelShards = 2
	aiRes := simOrFatal(t, ai)
	mxRes := simOrFatal(t, mx)
	speedup := aiRes.Throughput / mxRes.Throughput
	if speedup < 1.8 {
		t.Errorf("AIACC/MXNet hybrid at 64 GPUs = %.2fx, want >= 1.8x", speedup)
	}
}

// Throughput must increase monotonically with GPU count for AIACC (the
// paper's headline scalability result).
func TestAIACCThroughputMonotone(t *testing.T) {
	prev := 0.0
	for _, g := range []int{1, 8, 16, 32, 64, 128, 256} {
		res := simOrFatal(t, aiaccConfig(g, model.ResNet50()))
		if res.Throughput <= prev {
			t.Errorf("throughput not monotone at %d GPUs: %.0f after %.0f", g, res.Throughput, prev)
		}
		prev = res.Throughput
	}
}

func TestEngineKindStrings(t *testing.T) {
	if AIACC.String() != "aiacc" || Horovod.String() != "horovod" ||
		PyTorchDDP.String() != "pytorch-ddp" || BytePS.String() != "byteps" ||
		MXNetPS.String() != "mxnet-ps" {
		t.Error("engine kind strings wrong")
	}
}

// Engines without runtime negotiation run one static plan: their units per
// iteration are exactly the units of one packing.Pack over every gradient,
// registered as a live rank registers them.
func TestStaticPlanUnitsArePack(t *testing.T) {
	for _, m := range []model.Model{model.ResNet50(), model.VGG16(), model.BERTLarge()} {
		for _, kind := range []EngineKind{PyTorchDDP, BytePS} {
			cfg := baselineConfig(16, m, kind)
			reg := gradsync.NewRegistry()
			for _, p := range m.Params() {
				if err := reg.RegisterWithPriority(p.Name, p.Elems, p.Layer); err != nil {
					t.Fatal(err)
				}
			}
			grads, err := reg.Finalize()
			if err != nil {
				t.Fatal(err)
			}
			ids := make([]int, len(grads))
			for i := range ids {
				ids[i] = i
			}
			p, err := packing.NewPacker(cfg.Engine.GranularityBytes)
			if err != nil {
				t.Fatal(err)
			}
			units, err := p.Pack(reg.ByID, ids, 0)
			if err != nil {
				t.Fatal(err)
			}
			if res := simOrFatal(t, cfg); res.Units != len(units) {
				t.Errorf("%s %s@16: %d units per iteration, Pack forms %d", m.Name, kind, res.Units, len(units))
			}
		}
	}
}

// Repeated simulations of one deployment give identical Results: NIC
// transfers that finish at the same instant complete in start order, so
// slot order never depends on map order.
func TestDeterminism(t *testing.T) {
	vgg := aiaccConfig(32, model.VGG16())
	vgg.Engine.Streams = 12
	cases := []struct {
		name string
		cfg  Config
		runs int
	}{
		{"resnet50@32", aiaccConfig(32, model.ResNet50()), 2},
		{"vgg16@32 12 streams", vgg, 5},
	}
	for _, c := range cases {
		first := simOrFatal(t, c.cfg)
		for i := 1; i < c.runs; i++ {
			if r := simOrFatal(t, c.cfg); r != first {
				t.Errorf("%s: run %d differs from run 0:\n%+v\n%+v", c.name, i, r, first)
			}
		}
	}
}
