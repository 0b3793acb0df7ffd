package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"aiacc/compress"
	"aiacc/engine"
	"aiacc/netmodel"
	"aiacc/tensor"
	"aiacc/transport"
	"aiacc/transport/shmnet"
)

// ranks is the world size of every workload: the smallest world where the
// ring has more than one step per phase and a 2×2 two-level schedule exists.
const ranks = 4

// opTimeout bounds every blocking transport operation so that a hang unwinds
// into an error the watchdog can report instead of stalling the pipeline.
const opTimeout = 10 * time.Second

// grad is one registered gradient tensor.
type grad struct {
	name  string
	elems int
	layer int // forward layer index, the engine priority
}

// burst is a group of gradients pushed back to back, after an emulated
// backward-compute sleep.
type burst struct {
	sleep time.Duration
	grads []int // indices into workload.grads, in push order
}

// workload is one closed-loop scenario of the live engine.
type workload struct {
	name    string
	cfg     engine.Config
	network func(streams int) (transport.Network, error)
	// profile builds the gradient list (forward order) and the push schedule
	// (backward order) from the seed.
	profile func(seed uint64) ([]grad, []burst)
}

func baseConfig() engine.Config {
	cfg := engine.DefaultConfig()
	cfg.Algorithm = engine.Ring
	cfg.Coordinator = engine.Decentralized
	cfg.Average = true
	return cfg
}

var workloads = []*workload{bulkShmFP16(), manySmallTCP(), hierTwoTier(), schedSkewSlowLink()}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// bulkShmFP16: 16 MiB in 4 tensors, fp16 over shm rings. Codec, reduce
// kernel and ring copies do nearly all the work.
func bulkShmFP16() *workload {
	cfg := baseConfig()
	cfg.Streams = 2
	cfg.GranularityBytes = 4 << 20
	cfg.Codec = compress.FP16{}
	return &workload{
		name: "bulk_shm_fp16",
		cfg:  cfg,
		network: func(streams int) (transport.Network, error) {
			return shmnet.New(ranks, streams, shmnet.WithOpTimeout(opTimeout))
		},
		profile: func(uint64) ([]grad, []burst) {
			return uniformProfile(4, 1<<20)
		},
	}
}

// manySmallTCP: 162 small ResNet-like gradients over TCP loopback. Readiness
// rounds, packing and per-frame latency dominate.
func manySmallTCP() *workload {
	cfg := baseConfig()
	cfg.Streams = 4
	cfg.GranularityBytes = 64 << 10
	cfg.MinSyncBytes = 64 << 10
	cfg.Codec = compress.FP32{}
	return &workload{
		name: "manysmall_tcp_fp32",
		cfg:  cfg,
		network: func(streams int) (transport.Network, error) {
			return transport.NewTCP(ranks, streams, transport.WithOpTimeout(opTimeout))
		},
		profile: resnetLikeProfile,
	}
}

// hierTwoTier: 12 MiB uniform through the two-level all-reduce over 2 hosts
// × 2 ranks (shm inside a host, TCP between). It guards the fp32 and
// sub-communicator paths.
func hierTwoTier() *workload {
	cfg := baseConfig()
	cfg.Streams = 2
	cfg.GranularityBytes = 2 << 20
	cfg.Algorithm = engine.Hierarchical
	cfg.GPUsPerNode = 2
	cfg.Codec = compress.FP32{}
	return &workload{
		name: "hier_twotier_fp32",
		cfg:  cfg,
		network: func(streams int) (transport.Network, error) {
			const perHost = 2
			intra := make([]transport.Network, ranks/perHost)
			for h := range intra {
				n, err := shmnet.New(perHost, streams, shmnet.WithOpTimeout(opTimeout))
				if err != nil {
					closeAll(intra[:h])
					return nil, err
				}
				intra[h] = n
			}
			inter, err := transport.NewTCP(ranks, streams, transport.WithOpTimeout(opTimeout))
			if err != nil {
				closeAll(intra)
				return nil, err
			}
			return transport.NewTwoTier(perHost, intra, inter)
		},
		profile: func(uint64) ([]grad, []burst) {
			return uniformProfile(12, 256<<10)
		},
	}
}

// schedSkewSlowLink: CTR-like skew over a modelled 0.8 Gbps link through the
// priority dispatcher. Link time dominates: the control for byte-path work.
func schedSkewSlowLink() *workload {
	cfg := baseConfig()
	cfg.Streams = 1
	cfg.GranularityBytes = 256 << 10
	cfg.SegmentBytes = 32 << 10
	cfg.MinSyncBytes = 1
	// Depth 1, not more: on the seed, preemptive depth >= 2 at 4 ranks with
	// paced pushes hangs (ROADMAP item 0).
	cfg.PriorityDepth = 1
	cfg.Codec = compress.FP32{}
	link := netmodel.Link{
		Kind:            netmodel.TCP,
		CapacityGbps:    0.8,
		SingleStreamEff: 0.5,
		MaxUtilization:  0.96,
		BaseLatency:     50 * time.Microsecond,
	}
	return &workload{
		name: "sched_skew_slowlink",
		cfg:  cfg,
		network: func(streams int) (transport.Network, error) {
			inner, err := transport.NewMem(ranks, streams,
				transport.WithModeledLink(link), transport.WithMemOpTimeout(opTimeout))
			if err != nil {
				return nil, err
			}
			return &countingNet{Network: inner}, nil
		},
		profile: ctrLikeProfile,
	}
}

func closeAll(nets []transport.Network) {
	for _, n := range nets {
		_ = n.Close()
	}
}

// uniformProfile is n equal tensors, one per layer, pushed in one burst.
func uniformProfile(n, elems int) ([]grad, []burst) {
	grads := make([]grad, n)
	for l := range grads {
		grads[l] = grad{name: fmt.Sprintf("l%02d.weight", l), elems: elems, layer: l}
	}
	return grads, backwardBursts(grads, n, 0)
}

// resnetLikeProfile is 54 layers of {conv weight, bn gamma, bn beta}.
// Backward runs in 9 bursts of 6 layers. The conv sizes are 54 values spread
// evenly over [2 Ki, 12 Ki] elements and the seed decides which layer gets
// which: every seed moves the same volume in the same size mix, so runs with
// different seeds stay comparable.
func resnetLikeProfile(seed uint64) ([]grad, []burst) {
	const layers = 54
	order := rand.New(rand.NewPCG(seed, 0x5e5e)).Perm(layers)
	grads := make([]grad, 0, 3*layers)
	for l := 0; l < layers; l++ {
		conv := 2<<10 + order[l]*(10<<10)/(layers-1)
		grads = append(grads,
			grad{name: fmt.Sprintf("l%02d.conv.weight", l), elems: conv, layer: l},
			grad{name: fmt.Sprintf("l%02d.bn.gamma", l), elems: 256, layer: l},
			grad{name: fmt.Sprintf("l%02d.bn.beta", l), elems: 256, layer: l})
	}
	return grads, backwardBursts(grads, 6, 250*time.Microsecond)
}

// ctrLikeProfile puts ~80% of the volume into the layer-0 embedding, the
// layer the next forward needs first and backward produces last.
func ctrLikeProfile(uint64) ([]grad, []burst) {
	grads := []grad{
		{name: "embed.weight", elems: 768 << 10, layer: 0},
		{name: "dense1.weight", elems: 96 << 10, layer: 1},
		{name: "dense1.bias", elems: 1 << 10, layer: 1},
		{name: "dense2.weight", elems: 64 << 10, layer: 2},
		{name: "dense2.bias", elems: 512, layer: 2},
		{name: "head.weight", elems: 32 << 10, layer: 3},
	}
	return grads, backwardBursts(grads, 1, 2*time.Millisecond)
}

// backwardBursts groups the gradients (listed in forward order) into bursts
// of layersPerBurst layers, last layer first, each preceded by sleep.
func backwardBursts(grads []grad, layersPerBurst int, sleep time.Duration) []burst {
	var out []burst
	lastLayer := -1
	for i := len(grads) - 1; i >= 0; i-- {
		if l := grads[i].layer; l != lastLayer {
			if (numLayers(grads)-1-l)%layersPerBurst == 0 {
				out = append(out, burst{sleep: sleep})
			}
			lastLayer = l
		}
		b := &out[len(out)-1]
		b.grads = append(b.grads, i)
	}
	return out
}

func numLayers(grads []grad) int {
	n := 0
	for _, g := range grads {
		n = max(n, g.layer+1)
	}
	return n
}

func totalElems(grads []grad) int {
	n := 0
	for _, g := range grads {
		n += g.elems
	}
	return n
}

// scheduledBackward is the emulated backward compute of one iteration.
func scheduledBackward(bursts []burst) time.Duration {
	var d time.Duration
	for _, b := range bursts {
		d += b.sleep
	}
	return d
}

// fillValues writes seeded multiples of 1/8 in [-4, 4). Sums of four such
// values are multiples of 1/8 below 16 in magnitude, which fp16 (11-bit
// significand) and fp32 both hold exactly, so the all-reduced mean is
// bit-exact under any codec, algorithm and reduction order.
func fillValues(dst []float32, seed uint64, rank, gradIdx int) {
	rng := rand.NewPCG(seed, uint64(rank)<<32|uint64(gradIdx))
	for i := 0; i < len(dst); {
		bits := rng.Uint64()
		for k := 0; k < 10 && i < len(dst); k++ {
			dst[i] = float32(int(bits&63)-32) / 8
			bits >>= 6
			i++
		}
	}
}

// dataset is what the training framework would own: every rank's gradient
// tensors (work, which the engine reduces in place), the pristine values they
// are restored from before each iteration, and the exact expected mean.
type dataset struct {
	seed     uint64
	grads    []grad
	bursts   []burst
	pristine [ranks][][]float32
	work     [ranks][]*tensor.Tensor
	expected [][]float32
}

func newDataset(w *workload, seed uint64) *dataset {
	grads, bursts := w.profile(seed)
	d := &dataset{seed: seed, grads: grads, bursts: bursts, expected: make([][]float32, len(grads))}
	for r := 0; r < ranks; r++ {
		d.pristine[r] = make([][]float32, len(grads))
		d.work[r] = make([]*tensor.Tensor, len(grads))
		for g := range grads {
			d.pristine[r][g] = make([]float32, grads[g].elems)
			fillValues(d.pristine[r][g], seed, r, g)
			d.work[r][g] = tensor.New(grads[g].elems)
		}
	}
	for g := range grads {
		exp := make([]float32, grads[g].elems)
		for i := range exp {
			var sum float32
			for r := 0; r < ranks; r++ {
				sum += d.pristine[r][g][i]
			}
			exp[i] = sum * (float32(1) / ranks)
		}
		d.expected[g] = exp
	}
	return d
}
