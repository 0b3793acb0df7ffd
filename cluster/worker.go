package cluster

import (
	"fmt"
	"time"

	"aiacc/collective"
	"aiacc/engine"
	"aiacc/internal/gradsync"
	"aiacc/internal/packing"
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
	totalBytes  int64

	// Unit layout, as on a live rank: gradients registered by name with
	// their forward layer as priority, packed by packing.Pack.
	reg     *gradsync.Registry
	grads   []gradsync.Gradient // by id, after model-parallel sharding
	paramID []int               // flat param index -> gradient id
	packer  *packing.Packer
	// plan holds, for engines without runtime negotiation, the units of one
	// static Pack over every gradient, keyed by the id of the last gradient
	// each carries in production order; nil for negotiating engines.
	plan [][]packing.Unit

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

func newWorker(cfg Config, cal Calibration) (*worker, error) {
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
	if err := w.layout(shards); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
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
	w.updateTime = cal.UpdateBase +
		time.Duration(float64(w.totalBytes)/cal.UpdateBytesPerSec*float64(time.Second))
	return w, nil
}

// layout registers every gradient as a live rank does (name-sorted ids,
// forward layer as priority, elements split across model-parallel shards),
// sums the per-layer volumes and makes the packer, plus the static plan for
// engines that do not negotiate.
func (w *worker) layout(shards int) error {
	params := w.cfg.Model.Params()
	w.reg = gradsync.NewRegistry()
	for _, p := range params {
		if err := w.reg.RegisterWithPriority(p.Name, max(p.Elems/shards, 1), p.Layer); err != nil {
			return err
		}
	}
	grads, err := w.reg.Finalize()
	if err != nil {
		return err
	}
	w.grads = grads
	w.paramID = make([]int, len(params))
	for i, p := range params {
		g, err := w.reg.ByName(p.Name)
		if err != nil {
			return err
		}
		w.paramID[i] = g.ID
	}
	w.layers = len(w.cfg.Model.Layers)
	w.layerBytes = make([]int64, w.layers)
	for _, g := range grads {
		w.layerBytes[g.Priority] += g.Bytes()
		w.totalBytes += g.Bytes()
	}
	w.schedule = w.cfg.Model.BackwardSchedule()
	if w.packer, err = packing.NewPacker(w.cfg.Engine.GranularityBytes); err != nil {
		return err
	}
	if k := w.cfg.Engine.Kind; k == AIACC || k == Horovod {
		return nil // negotiating engines pack each agreed round
	}
	ids := make([]int, len(grads))
	for i := range ids {
		ids[i] = i
	}
	units, err := w.packer.Pack(w.reg.ByID, ids, 0)
	if err != nil {
		return err
	}
	order := make([]int, len(grads)) // gradient id -> position in production order
	for k, ev := range w.schedule {
		order[w.paramID[ev.Param]] = k
	}
	w.plan = make([][]packing.Unit, len(grads))
	for _, u := range units {
		last := u.Fragments[0].GradID
		for _, f := range u.Fragments[1:] {
			if order[f.GradID] > order[last] {
				last = f.GradID
			}
		}
		w.plan[last] = append(w.plan[last], u)
	}
	return nil
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
// Compressing engines pay an encode+decode pass over the fp32 payload. The
// baselines pay it whole: they have no segment pipelining, whatever their
// SegmentBytes says. AIACC cuts a unit into wire-pipelining segments
// (Engine.SegmentBytes, 0 meaning collective.DefaultSegmentBytes as in the
// engine), so only the pipeline-fill segment's codec share stays exposed —
// the rest overlaps the in-flight transfer — at a fixed per-segment framing
// cost (DESIGN.md §6).
func (w *worker) codecExposure(bytes int64) time.Duration {
	if w.cfg.Engine.WireBytesPerElem != 2 || w.cal.CodecBytesPerSec <= 0 || w.world() == 1 {
		return 0
	}
	full := time.Duration(float64(bytes) / w.cal.CodecBytesPerSec * float64(time.Second))
	if w.cfg.Engine.Kind != AIACC {
		return full
	}
	seg := w.cfg.Engine.SegmentBytes
	if seg == 0 {
		seg = collective.DefaultSegmentBytes
	}
	segs := netmodel.Segments(bytes, seg)
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
	if w.cfg.Engine.Algorithm == engine.Hierarchical && nodes > 1 {
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

// preemptive reports whether each unit's Priority is its class and may
// preempt (PriorityDepth 2).
func (w *worker) preemptive() bool { return w.cfg.Engine.PriorityDepth == 2 }

// iteration is the per-iteration engine state machine.
type iteration struct {
	w *worker

	bwdEnd time.Duration

	producedBytes int64 // locally produced, not yet in a round
	producedIDs   []int // the same gradients, in production order
	totalProduced int   // produced tensors this iteration (never reset)
	allProduced   bool
	roundInFlight bool
	agreedAll     bool // every gradient has been agreed
	seq           int  // Seq of the next packed unit
	completeBytes int64
	err           error // first packing error, ends the iteration

	streams  []packing.Stream // the engine's dispatch state machine, per stream
	slotWait []packing.Unit   // started units waiting for a GPU stream slot, in start order
	slots    int              // started units holding a GPU stream slot

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
		streams:   make([]packing.Stream, w.cfg.Engine.Streams),
	}

	n := w.world()
	if n == 1 {
		// Single worker: no communication at all.
		w.s.RunUntil(it.bwdEnd + w.updateTime)
		it.stats.critical = it.criticalPath()
		return w.s.Now(), it.stats, nil
	}

	// Transfers while compute still occupies the host run at a reduced
	// rate (host staging contention), until backward drains.
	scale := w.cal.BusyBandwidthScale
	busy := w.cfg.Topology.Nodes > 1 && scale > 0 && scale < 1
	if busy {
		w.nic.SetScale(scale)
	}
	// Schedule gradient production events along the backward pass.
	bwdStart := start + w.fwdTime
	for _, ev := range w.schedule {
		ev := ev
		at := bwdStart + time.Duration(ev.Frac*float64(w.bwdTime))
		_ = w.s.At(at, func() { it.produce(ev.Param) })
	}
	// When backward drains the host runs the NIC at full rate again and the
	// stream cap rises.
	_ = w.s.At(it.bwdEnd, func() {
		if busy {
			w.nic.SetScale(1)
		}
		it.fillSlots()
	})

	w.s.Run()
	if it.err != nil {
		return 0, it.stats, it.err
	}

	// Invariant: every gradient byte must have been agreed, emitted and
	// communicated — a violation is an engine-model bug, not a tunable.
	if it.completeBytes != w.totalBytes || !it.agreedAll {
		return 0, it.stats, fmt.Errorf(
			"cluster: iteration incomplete: %d of %d bytes communicated (agreedAll=%v, waiting=%d, slots=%d)",
			it.completeBytes, w.totalBytes, it.agreedAll, len(it.slotWait), it.slots)
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
	id := w.paramID[param]
	it.totalProduced++
	it.allProduced = it.totalProduced == len(w.grads)
	if w.plan != nil {
		// No runtime negotiation: planned buckets fire as they fill.
		it.agreedAll = it.allProduced
		for _, u := range w.plan[id] {
			it.dispatch(u)
		}
		it.fillSlots()
		return
	}
	it.producedBytes += w.grads[id].Bytes()
	it.producedIDs = append(it.producedIDs, id)
	it.maybeStartRound()
}

// maybeStartRound begins a readiness agreement round if warranted: the
// unagreed bucket reached the policy's SyncBytes, as engine.runIteration's
// does, or backward has finished and gradients remain unagreed.
func (it *iteration) maybeStartRound() {
	w := it.w
	if it.roundInFlight || it.agreedAll {
		return
	}
	if it.producedBytes == 0 {
		return
	}
	trigger := it.producedBytes >= w.cfg.Engine.SyncBytes() || it.allProduced
	if w.cfg.Engine.Kind == Horovod {
		// Horovod negotiates on a fixed cycle regardless of volume.
		trigger = true
	}
	if !trigger {
		return
	}
	it.roundInFlight = true
	it.stats.syncRounds++

	roundIDs := it.producedIDs
	roundAll := it.allProduced
	it.producedBytes = 0
	it.producedIDs = nil

	now := w.s.Now()
	var doneAt time.Duration
	if w.cfg.Engine.Kind == AIACC && w.cfg.Engine.Coordinator == engine.Decentralized {
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
			time.Duration(len(roundIDs))*time.Duration(w.world())*w.cal.MasterPerTensor
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
		if roundAll {
			it.agreedAll = true
		}
		// The round's units are queued at once, packed as a live rank packs
		// its agreed ids.
		units, err := w.packer.Pack(w.reg.ByID, roundIDs, it.seq)
		if err != nil {
			it.err = err
			return
		}
		it.seq += len(units)
		for _, u := range units {
			it.dispatch(u)
		}
		it.fillSlots()
		// More gradients may have arrived during the round.
		it.maybeStartRound()
	})
}

// dispatch hands a unit to stream Seq mod Streams, as engine.dispatch
// does; a unit its stream starts waits for a GPU stream slot.
func (it *iteration) dispatch(u packing.Unit) {
	it.stats.units++
	if !it.w.preemptive() {
		u.Priority = 0 // one class: packing has used the priority already
	}
	if it.streams[u.Seq%len(it.streams)].Arrive(u) == packing.Start {
		it.slotWait = append(it.slotWait, u)
	}
}

// fillSlots gives waiting units a GPU stream slot, in start order, up to the
// current stream cap, and launches their transfers. Every unit holding a
// slot shares the NIC, a unit its stream would park included (DESIGN.md
// §10).
func (it *iteration) fillSlots() {
	w := it.w
	for len(it.slotWait) > 0 && it.slots < w.streamCap(w.s.Now(), it.bwdEnd) {
		u := it.slotWait[0]
		it.slotWait[0] = packing.Unit{}
		it.slotWait = it.slotWait[1:]
		it.slots++
		bytes := u.Bytes()
		latency, nicVol, serial := w.unitTiming(bytes)
		// Every unit pays a fixed dispatch cost (communication kernel
		// launch, gather/scatter packing) on its stream, plus the exposed
		// share of any gradient-compression codec pass.
		serial += w.cal.UnitOverhead + w.codecExposure(bytes)
		w.s.After(latency+serial, func() {
			if nicVol <= 0 {
				it.completeUnit(u)
				return
			}
			w.nic.Start(nicVol, func() { it.completeUnit(u) })
		})
	}
}

func (it *iteration) completeUnit(u packing.Unit) {
	it.slots--
	if next, act := it.streams[u.Seq%len(it.streams)].Retire(u.Seq); act == packing.Start {
		it.slotWait = append(it.slotWait, next)
	}
	it.completeBytes += u.Bytes()
	now := it.w.s.Now()
	for _, f := range u.Fragments {
		l := it.w.grads[f.GradID].Priority
		it.layerLeft[l] -= int64(f.Elems) * 4
		if it.layerLeft[l] <= 0 && it.layerDone[l] < now {
			it.layerDone[l] = now
		}
	}
	if now > it.lastCommDone {
		it.lastCommDone = now
	}
	it.fillSlots()
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
