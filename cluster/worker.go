package cluster

import (
	"fmt"
	"sort"
	"time"

	"aiacc/internal/sim"
	"aiacc/model"
	"aiacc/netmodel"
)

// worker simulates one representative training worker and its node's NIC.
// All timing state that persists across iterations (the simulator clock, the
// master coordinator's serial queue, the sync stream) lives here.
type worker struct {
	cfg Config
	cal Calibration

	s   *sim.Simulator
	nic *sim.SharedLink

	// Derived per-iteration constants.
	fwdTime     time.Duration
	bwdTime     time.Duration
	computeTime time.Duration
	updateTime  time.Duration
	schedule    []model.GradEvent
	paramBytes  []int64 // per flat param, after model-parallel sharding
	paramLayer  []int   // per flat param, forward layer index
	totalBytes  int64

	// Per forward layer (priority scheduling and critical-path pricing).
	layers     int
	layerBytes []int64         // gradient bytes per layer
	fwdShare   []time.Duration // forward compute share per layer

	// Cross-iteration serial resources.
	masterFree time.Duration // when the master coordinator is next free
	syncFree   time.Duration // when the decentralized sync stream is free
}

// iterStats collects per-iteration metrics.
type iterStats struct {
	syncRounds int
	units      int
	exposed    time.Duration
	critical   time.Duration
}

func newWorker(cfg Config, cal Calibration) *worker {
	s := sim.New()
	top := cfg.Topology
	link := top.Intra
	if top.Nodes > 1 {
		link = top.Inter
	}
	w := &worker{cfg: cfg, cal: cal, s: s, nic: sim.NewSharedLink(s, link)}

	shards := cfg.ModelParallelShards
	if shards < 1 {
		shards = 1
	}
	flops := float64(cfg.Model.FwdFLOPs()) * float64(cfg.BatchPerGPU) / float64(shards)
	effFLOPS := cfg.GPU.FLOPS * cfg.Model.EffectiveSpeedFactor()
	overhead := cal.FrameworkOverhead
	if shards > 1 {
		// Activation exchange between model-parallel shards (intra-node).
		overhead *= 1.10
	}
	w.fwdTime = time.Duration(flops / effFLOPS * overhead * float64(time.Second))
	w.bwdTime = 2 * w.fwdTime
	w.computeTime = w.fwdTime + w.bwdTime

	params := cfg.Model.Params()
	w.paramBytes = make([]int64, len(params))
	w.paramLayer = make([]int, len(params))
	w.layers = len(cfg.Model.Layers)
	w.layerBytes = make([]int64, w.layers)
	for i, p := range params {
		b := int64(p.Elems) * 4 / int64(shards)
		if b < 4 {
			b = 4
		}
		w.paramBytes[i] = b
		w.paramLayer[i] = p.Layer
		w.layerBytes[p.Layer] += b
		w.totalBytes += b
	}
	// Per-layer forward compute share, for the next-forward critical path.
	w.fwdShare = make([]time.Duration, w.layers)
	var totalFLOPs int64
	for _, l := range cfg.Model.Layers {
		totalFLOPs += l.FwdFLOPs
	}
	for l, layer := range cfg.Model.Layers {
		if totalFLOPs > 0 {
			w.fwdShare[l] = time.Duration(float64(w.fwdTime) * float64(layer.FwdFLOPs) / float64(totalFLOPs))
		}
	}
	w.schedule = cfg.Model.BackwardSchedule()
	w.updateTime = cal.UpdateBase +
		time.Duration(float64(w.totalBytes)/cal.UpdateBytesPerSec*float64(time.Second))
	return w
}

// world returns the data-parallel world size (GPUs / model-parallel shards
// still all-reduce together per shard group; for timing the ring spans the
// data-parallel replicas).
func (w *worker) world() int {
	n := w.cfg.Topology.TotalGPUs()
	if w.cfg.ModelParallelShards > 1 {
		n /= w.cfg.ModelParallelShards
		if n < 1 {
			n = 1
		}
	}
	return n
}

// streamCap returns the admissible concurrent communication streams at
// virtual time t within the iteration whose backward ends at bwdEnd.
func (w *worker) streamCap(t, bwdEnd time.Duration) int {
	limit := w.cfg.GPU.StreamsIdle
	if t < bwdEnd {
		limit = w.cfg.GPU.StreamsBusy
	}
	if w.cfg.Engine.Streams < limit {
		return w.cfg.Engine.Streams
	}
	return limit
}

// wireBytes converts fp32 payload bytes to effective on-the-wire bytes:
// scaled down by the codec, scaled up by any per-engine bandwidth handicap.
func (w *worker) wireBytes(b int64) int64 {
	wire := float64(b) * float64(w.cfg.Engine.WireBytesPerElem) / 4
	return int64(wire / w.cfg.Engine.effLink())
}

// codecExposure returns the serial codec cost on a unit's critical path.
// Compressing engines pay an encode+decode pass over the fp32 payload; with
// wire-pipelining segments (Engine.SegmentBytes) only the pipeline-fill
// segment's codec share stays exposed — the rest overlaps the in-flight
// transfer — at a fixed per-segment framing cost (DESIGN.md §6).
func (w *worker) codecExposure(bytes int64) time.Duration {
	if w.cfg.Engine.WireBytesPerElem != 2 || w.cal.CodecBytesPerSec <= 0 || w.world() == 1 {
		return 0
	}
	full := time.Duration(float64(bytes) / w.cal.CodecBytesPerSec * float64(time.Second))
	segs := netmodel.Segments(bytes, w.cfg.Engine.SegmentBytes)
	if segs <= 1 {
		return full
	}
	return netmodel.ExposedCompute(full, segs) + time.Duration(segs)*w.cal.SegmentOverhead
}

// unitTiming returns the serial latency charged to a stream before the NIC
// transfer, the NIC-shared volume, and any additional serial (non-NIC)
// transfer time for one communication unit of `bytes` fp32 payload.
func (w *worker) unitTiming(bytes int64) (latency time.Duration, nicVolume int64, serial time.Duration) {
	n := w.world()
	if n == 1 {
		return 0, 0, 0
	}
	wireB := w.wireBytes(bytes)
	top := w.cfg.Topology
	nodes := top.Nodes
	g := top.GPUsPerNode
	switch w.cfg.Engine.Kind {
	case BytePS, MXNetPS:
		// Parameter servers colocated on the worker nodes: each NIC carries
		// push+pull traffic for its g workers, 2·g·B·(W-1)/W in each
		// direction (§VIII-A's no-extra-CPU setup).
		if nodes == 1 {
			return 2 * top.Intra.BaseLatency, 2 * wireB, 0
		}
		vol := 2 * wireB * int64(g) * int64(nodes-1) / int64(nodes)
		return 2 * top.Inter.BaseLatency, vol, 0
	default:
	}
	if w.cfg.Engine.Algorithm == Hierarchical && nodes > 1 {
		// Two-level schedule: intra-node reduce-scatter, per-member shard
		// rings across nodes (every member drives its own cross-node ring —
		// no leader funnel), intra-node all-gather. The g shard rings
		// together put 2·B·(M-1)/M on each NIC, marginally less than the
		// flat ring's 2·B·(n-1)/n, and move the remaining 2·B·(g-1)/g over
		// the fast intra-node link instead of the NIC.
		intraVol := 2 * wireB * int64(g-1) / int64(g)
		intraSec := float64(intraVol) / top.Intra.BytesPerSecond(1)
		// The data is split into two blocks pipelined against each other, so
		// roughly half the intra traffic overlaps the cross-node rings; the
		// other half (pipeline fill/drain) stays exposed, plus the two extra
		// phase launches. This exposure is why the flat ring still wins in
		// the latency-dominated small-unit regime.
		latency = time.Duration(2*(g-1))*w.hop(top.Intra) +
			time.Duration(2*(nodes-1))*w.hop(top.Inter)
		serial = time.Duration(intraSec/2*float64(time.Second)) + 2*w.cal.UnitOverhead
		nicVolume = 2 * wireB * int64(nodes-1) / int64(nodes)
		return latency, nicVolume, serial
	}
	// Flat ring across all n workers: the NIC boundary edge carries
	// 2·B·(n-1)/n; per-hop pipelined latency accumulates over 2(n-1) steps
	// at the slowest link's hop cost.
	link := top.Intra
	if nodes > 1 {
		link = top.Inter
	}
	latency = time.Duration(2*(n-1)) * w.hop(link)
	nicVolume = 2 * wireB * int64(n-1) / int64(n)
	return latency, nicVolume, 0
}

// hop returns the pipelined per-hop latency for ring steps over the link.
// Ring steps overlap, so the effective per-hop cost is far below a full
// message round trip.
func (w *worker) hop(l netmodel.Link) time.Duration {
	if l.Kind == netmodel.NVLink || l.Kind == netmodel.PCIe || l.Kind == netmodel.SHM {
		return w.cal.IntraHopLatency
	}
	return w.cal.RingHopLatency
}

// span is a contiguous run of one forward layer's gradient bytes, tracked
// from production through agreement and packing so unit completions can be
// attributed back to layers.
type span struct {
	layer int
	bytes int64
}

// simUnit is one packed communication unit: its payload spans and its class,
// the layer of its most urgent span under preemptive dispatch, else 0.
type simUnit struct {
	bytes int64
	class int
	spans []span
}

// prioritized reports whether the engine schedules units by priority.
func (w *worker) prioritized() bool {
	return w.cfg.Engine.Kind == AIACC && w.cfg.Engine.PriorityDepth > 0
}

// preemptive reports whether each layer is its own class that may preempt
// (PriorityDepth 2).
func (w *worker) preemptive() bool { return w.cfg.Engine.PriorityDepth == 2 }

// iteration is the per-iteration engine state machine.
type iteration struct {
	w *worker

	bwdEnd time.Duration

	producedBytes   int64  // locally produced, not yet agreed
	producedSpans   []span // same bytes with layer attribution
	producedTensors int    // produced tensors awaiting agreement (per round)
	totalProduced   int    // produced tensors this iteration (never reset)
	allProduced     bool
	roundInFlight   bool

	agreedBacklog int64  // agreed but not yet emitted as units
	agreedSpans   []span // backlog with layer attribution, emission order
	agreedAll     bool   // every gradient has been agreed
	emittedBytes  int64
	completeBytes int64

	unitQueue     []simUnit
	activeStreams int
	activeClasses []int // class multiset of in-flight units

	layerLeft []int64         // gradient bytes not yet communicated, per layer
	layerDone []time.Duration // completion time of each layer's last byte

	lastCommDone time.Duration
	stats        iterStats
}

// runIteration simulates one full training iteration and returns its end
// time and stats. The simulator clock carries over between iterations.
func (w *worker) runIteration() (time.Duration, iterStats, error) {
	start := w.s.Now()
	it := &iteration{
		w: w, bwdEnd: start + w.computeTime, lastCommDone: start + w.computeTime,
		layerLeft: append([]int64(nil), w.layerBytes...),
		layerDone: make([]time.Duration, w.layers),
	}

	n := w.world()
	if n == 1 {
		// Single worker: no communication at all.
		w.s.RunUntil(it.bwdEnd + w.updateTime)
		it.stats.critical = it.criticalPath()
		return w.s.Now(), it.stats, nil
	}

	// Schedule gradient production events along the backward pass.
	bwdStart := start + w.fwdTime
	for _, ev := range w.schedule {
		ev := ev
		at := bwdStart + time.Duration(ev.Frac*float64(w.bwdTime))
		_ = w.s.At(at, func() { it.produce(ev.Param) })
	}
	// The stream cap rises when backward drains.
	_ = w.s.At(it.bwdEnd, func() { it.startUnits() })

	w.s.Run()

	// Invariant: every gradient byte must have been agreed, emitted and
	// communicated — a violation is an engine-model bug, not a tunable.
	if it.completeBytes != w.totalBytes || !it.agreedAll {
		return 0, it.stats, fmt.Errorf(
			"cluster: iteration incomplete: %d of %d bytes communicated (agreedAll=%v, queue=%d, active=%d)",
			it.completeBytes, w.totalBytes, it.agreedAll, len(it.unitQueue), it.activeStreams)
	}

	end := it.bwdEnd
	if it.lastCommDone > end {
		end = it.lastCommDone
	}
	end += w.updateTime
	it.stats.critical = it.criticalPath()
	it.stats.exposed = it.lastCommDone - it.bwdEnd
	if it.stats.exposed < 0 {
		it.stats.exposed = 0
	}
	w.s.RunUntil(end)
	return end, it.stats, nil
}

// produce handles one gradient tensor becoming available locally.
func (it *iteration) produce(param int) {
	w := it.w
	it.producedBytes += w.paramBytes[param]
	it.producedSpans = append(it.producedSpans, span{layer: w.paramLayer[param], bytes: w.paramBytes[param]})
	it.producedTensors++
	it.totalProduced++
	if it.totalProduced == len(w.paramBytes) {
		it.allProduced = true
	}
	switch w.cfg.Engine.Kind {
	case PyTorchDDP, BytePS, MXNetPS:
		// No runtime negotiation: buckets fire as they fill.
		it.agreedBacklog += it.producedBytes
		it.agreedSpans = append(it.agreedSpans, it.producedSpans...)
		it.producedBytes = 0
		it.producedSpans = nil
		if it.allProduced {
			it.agreedAll = true
		}
		it.emitUnits(it.allProduced)
	default:
		it.maybeStartRound()
	}
}

// maybeStartRound begins a readiness agreement round if warranted: the
// unagreed bucket reached the minimum granularity, or backward has finished
// and gradients remain unagreed.
func (it *iteration) maybeStartRound() {
	w := it.w
	if it.roundInFlight || it.agreedAll {
		return
	}
	if it.producedBytes == 0 {
		return
	}
	trigger := it.producedBytes >= w.cfg.Engine.GranularityBytes || it.allProduced
	if w.cfg.Engine.Kind == Horovod {
		// Horovod negotiates on a fixed cycle regardless of volume.
		trigger = true
	}
	if !trigger {
		return
	}
	it.roundInFlight = true
	it.stats.syncRounds++

	roundBytes := it.producedBytes
	roundSpans := it.producedSpans
	roundTensors := it.producedTensors
	roundAll := it.allProduced
	it.producedBytes = 0
	it.producedSpans = nil
	it.producedTensors = 0
	if w.prioritized() {
		// Reverse-topological packing: within the agreed batch, the layer
		// the next forward needs first goes first (canonical (priority, id)
		// order of internal/packing).
		sort.SliceStable(roundSpans, func(i, j int) bool { return roundSpans[i].layer < roundSpans[j].layer })
	}

	now := w.s.Now()
	var doneAt time.Duration
	decentralized := w.cfg.Engine.Kind == AIACC && w.cfg.Decentralized
	if decentralized {
		// Pipelined min/AND ring over the bit vector: O(n) hop latency,
		// constant per-node cost, no serial bottleneck beyond the sync
		// stream itself.
		lat := time.Duration(w.world()-1) * w.cal.SyncHopLatency
		begin := now
		if w.syncFree > begin {
			begin = w.syncFree
		}
		doneAt = begin + lat
		w.syncFree = doneAt
	} else {
		// Master negotiation: rank 0 serially receives and answers every
		// worker, plus per-ready-tensor bookkeeping — the bottleneck the
		// paper measures beyond ~128 GPUs.
		cost := time.Duration(2*w.world())*w.cal.MasterPerMessage +
			time.Duration(roundTensors)*time.Duration(w.world())*w.cal.MasterPerTensor
		begin := now
		if w.cfg.Engine.Kind == Horovod {
			// Wait for the next negotiation cycle tick.
			cycle := w.cal.NegotiationCycle
			if cycle > 0 {
				elapsed := begin % cycle
				if elapsed != 0 {
					begin += cycle - elapsed
				}
			}
		}
		if w.masterFree > begin {
			begin = w.masterFree
		}
		doneAt = begin + cost
		w.masterFree = doneAt
	}
	w.s.After(doneAt-now, func() {
		it.roundInFlight = false
		it.agreedBacklog += roundBytes
		it.agreedSpans = append(it.agreedSpans, roundSpans...)
		if roundAll {
			it.agreedAll = true
		}
		eager := w.cfg.Engine.Kind == Horovod
		it.emitUnits(eager || it.agreedAll)
		// More gradients may have arrived during the round.
		it.maybeStartRound()
	})
}

// emitUnits converts agreed backlog into communication units. Packed
// engines emit only full-granularity units until the final flush; eager
// engines (Horovod's per-cycle fusion) emit everything available.
func (it *iteration) emitUnits(flush bool) {
	g := it.w.cfg.Engine.GranularityBytes
	for it.agreedBacklog >= g {
		it.enqueue(it.takeUnit(g))
	}
	if flush && it.agreedBacklog > 0 {
		it.enqueue(it.takeUnit(it.agreedBacklog))
	}
	it.startUnits()
}

// takeUnit removes the first `bytes` bytes of agreed backlog as one unit's
// payload, splitting the boundary span; under preemption the unit's class is
// its most urgent span's layer.
func (it *iteration) takeUnit(bytes int64) simUnit {
	u := simUnit{bytes: bytes}
	minLayer := int(^uint(0) >> 1)
	remaining := bytes
	for remaining > 0 {
		s := &it.agreedSpans[0]
		take := s.bytes
		if take > remaining {
			take = remaining
		}
		u.spans = append(u.spans, span{layer: s.layer, bytes: take})
		if s.layer < minLayer {
			minLayer = s.layer
		}
		s.bytes -= take
		remaining -= take
		if s.bytes == 0 {
			it.agreedSpans = it.agreedSpans[1:]
		}
	}
	if it.w.preemptive() {
		u.class = minLayer
	}
	it.agreedBacklog -= bytes
	it.emittedBytes += bytes
	return u
}

// enqueue adds a unit to the dispatch queue: FIFO normally, class-ordered
// (stable within a class) under priority scheduling.
func (it *iteration) enqueue(u simUnit) {
	it.stats.units++
	if !it.w.prioritized() {
		it.unitQueue = append(it.unitQueue, u)
		return
	}
	i := len(it.unitQueue)
	for i > 0 && it.unitQueue[i-1].class > u.class {
		i--
	}
	it.unitQueue = append(it.unitQueue, simUnit{})
	copy(it.unitQueue[i+1:], it.unitQueue[i:])
	it.unitQueue[i] = u
}

// minActiveClass returns the most urgent in-flight class, or a sentinel
// above every class when idle.
func (it *iteration) minActiveClass() int {
	m := int(^uint(0) >> 1)
	for _, c := range it.activeClasses {
		if c < m {
			m = c
		}
	}
	return m
}

// admit reports whether the queue head may start now: a stream slot is
// free, or — preemptive mode — the unit is strictly more urgent than every
// in-flight one, granting it the preemptor slot (the live dispatcher pushes
// such a unit onto its stream's stack of started units and parks the one
// beneath; the shared-NIC model approximates the parked transfer).
func (it *iteration) admit(u simUnit) bool {
	capNow := it.w.streamCap(it.w.s.Now(), it.bwdEnd)
	if it.activeStreams < capNow {
		return true
	}
	return it.w.preemptive() &&
		it.activeStreams < capNow+1 && u.class < it.minActiveClass()
}

// startUnits admits queued units to streams up to the current concurrency
// cap (plus the preemptor slot in preemptive priority mode).
func (it *iteration) startUnits() {
	w := it.w
	for len(it.unitQueue) > 0 && it.admit(it.unitQueue[0]) {
		u := it.unitQueue[0]
		it.unitQueue[0] = simUnit{}
		it.unitQueue = it.unitQueue[1:]
		bytes := u.bytes
		it.activeStreams++
		it.activeClasses = append(it.activeClasses, u.class)
		latency, nicVol, serial := w.unitTiming(bytes)
		// Every unit pays a fixed dispatch cost (communication kernel
		// launch, gather/scatter packing) on its stream, plus the exposed
		// share of any gradient-compression codec pass.
		serial += w.cal.UnitOverhead + w.codecExposure(bytes)
		// Transfers launched while compute still occupies the host run at a
		// reduced effective rate (host staging contention); model as an
		// inflated volume.
		if w.s.Now() < it.bwdEnd && w.cfg.Topology.Nodes > 1 {
			scale := w.cal.BusyBandwidthScale
			if scale > 0 && scale < 1 {
				nicVol = int64(float64(nicVol) / scale)
			}
		}
		w.s.After(latency+serial, func() {
			if nicVol <= 0 {
				it.completeUnit(u)
				return
			}
			w.nic.Start(nicVol, func() { it.completeUnit(u) })
		})
	}
}

func (it *iteration) completeUnit(u simUnit) {
	it.activeStreams--
	for i, c := range it.activeClasses {
		if c == u.class {
			it.activeClasses[i] = it.activeClasses[len(it.activeClasses)-1]
			it.activeClasses = it.activeClasses[:len(it.activeClasses)-1]
			break
		}
	}
	it.completeBytes += u.bytes
	now := it.w.s.Now()
	for _, s := range u.spans {
		it.layerLeft[s.layer] -= s.bytes
		if it.layerLeft[s.layer] <= 0 && it.layerDone[s.layer] < now {
			it.layerDone[s.layer] = now
		}
	}
	if now > it.lastCommDone {
		it.lastCommDone = now
	}
	it.startUnits()
}

// criticalPath prices the schedule the next forward pass actually sees: a
// DAG walk where forward layer l starts only after layers 0..l-1 have run
// AND layer l's gradients finished communicating (plus its optimizer-update
// share). The returned duration is the next forward's start-to-finish
// stretch beyond its pure compute — lower means the priority order delivered
// front layers earlier.
func (it *iteration) criticalPath() time.Duration {
	w := it.w
	t := it.bwdEnd
	for l := 0; l < w.layers; l++ {
		ready := it.bwdEnd
		if w.layerBytes[l] > 0 {
			update := time.Duration(float64(w.updateTime) * float64(w.layerBytes[l]) / float64(w.totalBytes))
			ready = it.layerDone[l] + update
		}
		if ready > t {
			t = ready
		}
		t += w.fwdShare[l]
	}
	return t - it.bwdEnd
}
