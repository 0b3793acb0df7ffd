// Package cluster is a discrete-event simulator of distributed DNN training
// on a GPU cloud. It models what the paper's evaluation (§VII-§VIII)
// measures on real hardware: per-layer gradient production during backward
// propagation, readiness synchronization (decentralized vs master-based),
// gradient packing, multi-streamed all-reduce over bandwidth-shared
// NICs with the measured single-stream efficiency ceiling, parameter-server
// baselines, hierarchical all-reduce, fp16 compression and hybrid
// data+model parallelism.
//
// Because synchronous data-parallel workers are symmetric, simulating one
// representative node's NIC and one worker's timeline reproduces cluster
// behaviour exactly while letting a 256-GPU × 300-iteration experiment run
// in microseconds. The communication policies simulated here are the same
// ones the live engine (package engine) executes for real: every unit is
// formed by packing.Pack over gradients registered as a live rank registers
// them, one call per agreed readiness round (or one static plan for engines
// that do not negotiate), and runs on stream Seq mod Streams, whose
// packing.Stream decides when it starts, as the engine's dispatcher does.
// The simulator adds only the hardware model: GPU FLOPs, the GPU's cap on
// concurrent communication streams, host contention and link
// bandwidth/latency curves.
package cluster

import (
	"errors"
	"fmt"
	"time"

	"aiacc/engine"
	"aiacc/internal/sim"
	"aiacc/model"
	"aiacc/netmodel"
)

// ErrBadConfig indicates an invalid simulation configuration.
var ErrBadConfig = errors.New("cluster: bad configuration")

// GPU models an accelerator's compute capability and its capacity for
// concurrent communication streams (§II-D: the hardware scheduler limits how
// many CUDA streams run concurrently under compute contention).
type GPU struct {
	// Name identifies the device.
	Name string
	// FLOPS is the effective (achieved, not peak) fp32 throughput.
	FLOPS float64
	// StreamsBusy is the maximum concurrent communication streams while
	// compute kernels occupy the SMs.
	StreamsBusy int
	// StreamsIdle is the maximum once compute has drained.
	StreamsIdle int
}

// V100 returns the paper's evaluation GPU: a 32 GB NVLink V100, with an
// effective training throughput of ~9 TFLOPS (≈57% of the 15.7 TFLOPS fp32
// peak, typical of convolution/GEMM mixes).
func V100() GPU {
	return GPU{Name: "v100", FLOPS: 9e12, StreamsBusy: 8, StreamsIdle: 24}
}

// EngineKind identifies a gradient communication engine.
type EngineKind int

// The engines compared in the paper's evaluation.
const (
	// AIACC is the paper's engine: decentralized sync, multi-streamed
	// concurrent ring/hierarchical all-reduce, tuned granularity.
	AIACC EngineKind = iota + 1
	// Horovod is the ring all-reduce baseline: single stream, 64 MiB fusion
	// buffer, master-based (rank 0 coordinator) readiness negotiation in
	// fixed cycles.
	Horovod
	// PyTorchDDP is torch.distributed DDP: single stream, static 25 MiB
	// buckets, no runtime negotiation.
	PyTorchDDP
	// BytePS is the parameter-server architecture with servers colocated on
	// the worker nodes (no extra CPU machines, matching §VIII-A's setup).
	BytePS
	// MXNetPS is MXNet's KVStore parameter server (dist_sync, single
	// connection), the Fig. 12/13 baseline.
	MXNetPS
)

// String implements fmt.Stringer.
func (k EngineKind) String() string {
	switch k {
	case AIACC:
		return "aiacc"
	case Horovod:
		return "horovod"
	case PyTorchDDP:
		return "pytorch-ddp"
	case BytePS:
		return "byteps"
	case MXNetPS:
		return "mxnet-ps"
	default:
		return fmt.Sprintf("EngineKind(%d)", int(k))
	}
}

// Engine configures the simulated communication engine: the live engine's
// communication policy plus the three simulator-only fields. The policy
// fields mean what they mean to engine.Config. The all-reduce baselines run
// one flat ring under their own readiness protocol and the PS engines none,
// so they carry Ring and Master and ignore them.
type Engine struct {
	engine.Policy
	// Kind selects the engine architecture.
	Kind EngineKind
	// WireBytesPerElem is 4 for fp32, 2 for fp16 compression.
	WireBytesPerElem int
	// LinkEfficiency scales the engine's achieved per-stream bandwidth
	// relative to a tuned NCCL socket stack (PyTorch-DDP's default TCP
	// backend reaches ~2/3 of NCCL's per-connection rate). 0 means 1.
	LinkEfficiency float64
}

// effLink returns LinkEfficiency with the zero value defaulted to 1.
func (e Engine) effLink() float64 {
	if e.LinkEfficiency <= 0 {
		return 1
	}
	return e.LinkEfficiency
}

// EngineDefaults returns the published default configuration of each engine.
// A baseline's segment is its whole unit, so its codec pass (when compressed)
// is priced whole-chunk.
func EngineDefaults(kind EngineKind) Engine {
	baseline := func(streams int, granularity int64, eff float64) Engine {
		return Engine{
			Policy: engine.Policy{Streams: streams, GranularityBytes: granularity, SegmentBytes: granularity,
				Algorithm: engine.Ring, Coordinator: engine.Master},
			Kind: kind, WireBytesPerElem: 4, LinkEfficiency: eff,
		}
	}
	switch kind {
	case Horovod:
		return baseline(1, 64<<20, 0)
	case PyTorchDDP:
		return baseline(1, 25<<20, 0.65)
	case BytePS:
		return baseline(4, 4<<20, 0)
	case MXNetPS:
		return baseline(1, 4<<20, 0)
	default:
		return Engine{
			Policy: engine.Policy{Streams: 8, GranularityBytes: 8 << 20, SegmentBytes: 256 << 10,
				Algorithm: engine.Ring, GPUsPerNode: 8, Coordinator: engine.Decentralized},
			Kind: AIACC, WireBytesPerElem: 4,
		}
	}
}

// Calibration collects the timing constants of the simulation. Defaults are
// calibrated so the baseline shapes match the paper's measurements; tests
// may narrow them.
type Calibration struct {
	// SyncHopLatency is the per-hop latency of the decentralized bit-vector
	// ring (pipelined small messages on the CPU network path).
	SyncHopLatency time.Duration
	// MasterPerMessage is the master coordinator's serial cost to receive
	// or send one worker's readiness message (Horovod-style negotiation).
	MasterPerMessage time.Duration
	// MasterPerTensor is the master's additional per-ready-tensor
	// bookkeeping cost within a negotiation round.
	MasterPerTensor time.Duration
	// NegotiationCycle is the baseline coordinator's cycle time between
	// negotiation rounds (Horovod's auto-tuned cycle typically settles in
	// the tens of milliseconds).
	NegotiationCycle time.Duration
	// RingHopLatency is the pipelined per-hop cost of a ring all-reduce
	// step over the inter-node network.
	RingHopLatency time.Duration
	// IntraHopLatency is the per-hop cost over NVLink.
	IntraHopLatency time.Duration
	// BusyBandwidthScale is the fraction of NIC throughput achievable while
	// the GPU/CPU are busy with compute: TCP transfers stage through the
	// host, contending with kernels and input pipelines (§III's "frequent
	// GPU stalls"). On multi-node topologies it scales the NIC's rate from
	// the start of each iteration until backward drains; from then on
	// every transfer runs at full rate.
	BusyBandwidthScale float64
	// UnitOverhead is the fixed per-unit dispatch cost (communication
	// kernel launch plus gather/scatter packing) charged to the unit's
	// stream.
	UnitOverhead time.Duration
	// UpdateBase is the fixed parameter-update (optimizer) cost per
	// iteration.
	UpdateBase time.Duration
	// UpdateBytesPerSec is the optimizer's memory throughput for parameter
	// updates.
	UpdateBytesPerSec float64
	// FrameworkOverhead multiplies compute time (adapter/runtime cost).
	FrameworkOverhead float64
	// CodecBytesPerSec is the single-core throughput of the gradient
	// compression codec (fp16 encode+decode pass over the fp32 payload).
	// Charged only when the engine compresses (WireBytesPerElem == 2).
	// The live F16C kernels measure 20e9 on a 2.1 GHz Xeon (3.0 µs encode +
	// 3.6 µs decode-add per 128 KiB, BenchmarkWireKernels); the portable
	// loops they fall back to measure 1.7e9 (50 + 25 µs).
	CodecBytesPerSec float64
	// SegmentOverhead is the fixed per-segment framing/dispatch cost paid
	// when a chunk is wire-pipelined as multiple segments.
	SegmentOverhead time.Duration
}

// DefaultCalibration returns the calibration used for the paper
// reproduction.
func DefaultCalibration() Calibration {
	return Calibration{
		SyncHopLatency:     20 * time.Microsecond,
		MasterPerMessage:   10 * time.Microsecond,
		MasterPerTensor:    4 * time.Microsecond,
		NegotiationCycle:   5 * time.Millisecond,
		RingHopLatency:     12 * time.Microsecond,
		IntraHopLatency:    time.Microsecond,
		BusyBandwidthScale: 0.6,
		UnitOverhead:       300 * time.Microsecond,
		UpdateBase:         time.Millisecond,
		UpdateBytesPerSec:  300e9, // 3 passes over params at ~900 GB/s HBM
		FrameworkOverhead:  1.0,
		CodecBytesPerSec:   25e9, // the F16C kernels measure 20e9 on one core, see the field comment
		SegmentOverhead:    2 * time.Microsecond,
	}
}

// Config describes one simulated training deployment.
type Config struct {
	// Topology is the cluster layout and links.
	Topology netmodel.Topology
	// GPU is the accelerator model.
	GPU GPU
	// Model is the DNN workload.
	Model model.Model
	// BatchPerGPU is the per-worker minibatch; 0 uses the model default.
	BatchPerGPU int
	// Engine is the communication engine under test.
	Engine Engine
	// ModelParallelShards > 1 splits the model across that many GPUs of the
	// same node (hybrid data+model parallelism, Fig. 13).
	ModelParallelShards int
	// Iterations to simulate; 0 means 3. The first is warm-up.
	Iterations int
	// Calibration overrides the default timing constants when non-zero.
	Calibration *Calibration
}

func (c Config) validate() error {
	if err := c.Topology.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	if c.GPU.FLOPS <= 0 || c.GPU.StreamsBusy <= 0 || c.GPU.StreamsIdle < c.GPU.StreamsBusy {
		return fmt.Errorf("%w: gpu %+v", ErrBadConfig, c.GPU)
	}
	if err := c.Model.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	if c.BatchPerGPU < 0 {
		return fmt.Errorf("%w: batch %d", ErrBadConfig, c.BatchPerGPU)
	}
	if c.Engine.Kind < AIACC || c.Engine.Kind > MXNetPS {
		return fmt.Errorf("%w: engine kind %d", ErrBadConfig, int(c.Engine.Kind))
	}
	if err := c.Engine.Policy.Validate(); err != nil {
		return fmt.Errorf("%w: %w", ErrBadConfig, err)
	}
	if c.Engine.WireBytesPerElem != 2 && c.Engine.WireBytesPerElem != 4 {
		return fmt.Errorf("%w: wire bytes per elem %d", ErrBadConfig, c.Engine.WireBytesPerElem)
	}
	if c.Engine.PriorityDepth == 2 && c.Engine.Kind != AIACC {
		return fmt.Errorf("%w: priority depth 2 outside AIACC (engine %v)", ErrBadConfig, c.Engine.Kind)
	}
	if c.Engine.Kind != AIACC && (c.Engine.Algorithm != engine.Ring || c.Engine.Coordinator != engine.Master) {
		// The baselines are priced as a flat ring under a master coordinator;
		// anything else would be simulated as a schedule they do not have.
		return fmt.Errorf("%w: %v algorithm and %v coordinator outside AIACC (engine %v)",
			ErrBadConfig, c.Engine.Algorithm, c.Engine.Coordinator, c.Engine.Kind)
	}
	if c.Engine.Algorithm == engine.Hierarchical && c.Engine.GPUsPerNode != c.Topology.GPUsPerNode {
		// The two-level schedule is priced at the topology's node boundary.
		return fmt.Errorf("%w: hierarchical node group %d on %d GPUs per node",
			ErrBadConfig, c.Engine.GPUsPerNode, c.Topology.GPUsPerNode)
	}
	if c.ModelParallelShards < 0 || (c.ModelParallelShards > 1 && c.ModelParallelShards > c.Topology.GPUsPerNode) {
		return fmt.Errorf("%w: model parallel shards %d", ErrBadConfig, c.ModelParallelShards)
	}
	return nil
}

// Result reports the steady-state behaviour of one simulated deployment.
type Result struct {
	// IterTime is the steady-state duration of one training iteration.
	IterTime time.Duration
	// Throughput is samples/second across the whole cluster.
	Throughput float64
	// PerGPU is samples/second per GPU.
	PerGPU float64
	// ComputeTime is forward+backward compute per iteration.
	ComputeTime time.Duration
	// ExposedComm is communication time not hidden behind compute.
	ExposedComm time.Duration
	// SyncRounds is the number of readiness agreement rounds per iteration.
	SyncRounds int
	// Units is the number of communication units per iteration.
	Units int
	// NICUtilization is the mean fraction of the NIC rate available at each
	// instant that the transfers reach while the NIC is busy
	// (sim.LinkStats.MeanUtilization). It excludes BusyBandwidthScale: while
	// backward runs, the fraction of line rate achieved is that scale times
	// this.
	NICUtilization float64
	// NICBusy is the NIC busy time per iteration.
	NICBusy time.Duration
	// CriticalPath is the DAG critical path of the *next* forward pass:
	// starting when backward drains, layer l may run only after layers
	// 0..l-1 ran and l's own gradient finished its all-reduce and update.
	// It prices the schedule, not just the volume — two engines with equal
	// IterTime differ here when one delivers early-layer gradients sooner
	// (the priority scheduler's target metric).
	CriticalPath time.Duration
}

// Simulate runs the deployment and returns steady-state metrics.
func Simulate(cfg Config) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	if cfg.BatchPerGPU == 0 {
		cfg.BatchPerGPU = cfg.Model.DefaultBatch
	}
	iters := cfg.Iterations
	if iters <= 0 {
		iters = 3
	}
	cal := DefaultCalibration()
	if cfg.Calibration != nil {
		cal = *cfg.Calibration
	}
	if cal.FrameworkOverhead <= 0 {
		cal.FrameworkOverhead = 1
	}

	w, err := newWorker(cfg, cal)
	if err != nil {
		return Result{}, err
	}
	var (
		total      time.Duration
		rounds     int
		units      int
		exposed    time.Duration
		critical   time.Duration
		nicBusy    time.Duration
		measured   int
		prevStats  sim.LinkStats
		prevEnd    time.Duration
		sumUtilDen float64
		sumUtilNum float64
	)
	for i := 0; i < iters; i++ {
		end, it, err := w.runIteration()
		if err != nil {
			return Result{}, err
		}
		if i > 0 || iters == 1 { // skip warm-up unless it is all we have
			total += end - prevEnd
			rounds += it.syncRounds
			units += it.units
			exposed += it.exposed
			critical += it.critical
			st := w.nic.Stats()
			busy := st.BusyTime - prevStats.BusyTime
			nicBusy += busy
			sumUtilNum += st.MeanUtilization*st.BusyTime.Seconds() - prevStats.MeanUtilization*prevStats.BusyTime.Seconds()
			sumUtilDen += busy.Seconds()
			measured++
		}
		prevEnd = end
		prevStats = w.nic.Stats()
	}
	if measured == 0 {
		measured = 1
	}
	res := Result{
		IterTime:     total / time.Duration(measured),
		ComputeTime:  w.computeTime,
		ExposedComm:  exposed / time.Duration(measured),
		SyncRounds:   rounds / measured,
		Units:        units / measured,
		NICBusy:      nicBusy / time.Duration(measured),
		CriticalPath: critical / time.Duration(measured),
	}
	if sumUtilDen > 0 {
		res.NICUtilization = sumUtilNum / sumUtilDen
	}
	if res.IterTime > 0 {
		samplesPerIter := float64(cfg.BatchPerGPU) * float64(cfg.Topology.TotalGPUs())
		if cfg.ModelParallelShards > 1 {
			// Model-parallel shards jointly process one batch.
			samplesPerIter /= float64(cfg.ModelParallelShards)
		}
		res.Throughput = samplesPerIter / res.IterTime.Seconds()
		res.PerGPU = res.Throughput / float64(cfg.Topology.TotalGPUs())
	}
	return res, nil
}
