package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"syscall"
	"time"

	"aiacc/collective"
	"aiacc/engine"
	"aiacc/metrics"
)

// sizing is how much work one run does. The driver's runs are sized by time;
// the smoke pass and the tests by iteration count.
type sizing struct {
	worlds     int           // worlds built one after another; each is set up, timed and measured
	warmup     int           // warm-up iterations per cluster, part of setup_s
	seconds    float64       // measured window, when iters is 0
	iters      int           // measured iterations; 0 means by time
	probeCalls int           // calls per probe
	probeLimit time.Duration // time per probe
	// traceBlock is how many iterations of the traced run go unrecorded,
	// then recorded, and so on. Alternating short blocks keeps the two
	// medians comparable when the machine drifts.
	traceBlock int
}

func defaultSizing(seconds float64) sizing {
	return sizing{worlds: 5, warmup: 10, seconds: seconds, probeCalls: 200, probeLimit: time.Second, traceBlock: 5}
}

func smokeSizing() sizing {
	return sizing{worlds: 1, warmup: 2, iters: 3, probeCalls: 10, probeLimit: time.Second, traceBlock: 1}
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	info []string // lines printed for information only
}

func (r *result) set(name string, value float64, unit string) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		r.Correct = false
		r.info = append(r.info, fmt.Sprintf("metric %s is not finite", name))
		value = 0
	}
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

// window runs measured iterations until the sizing is used up and returns
// their results. The untraced run verifies its first and last iteration. The
// traced run verifies every iteration, recorded or not, so that recording is
// the only difference between the two kinds. The iteration that follows the
// deadline is the last: it is known to be the last before it starts, so it
// can be verified.
func window(c *cluster, sz sizing, rec *recorder, res *result) (untraced, traced []iterResult) {
	deadline := c.watchdog()
	start := time.Now()
	for n := 0; ; n++ {
		last := n == sz.iters-1
		if sz.iters == 0 {
			last = time.Since(start).Seconds() >= sz.seconds
		}
		var use *recorder
		if rec != nil && (n/sz.traceBlock)%2 == 1 {
			use = rec
		}
		res.Attempted++
		it, err := c.iterate(n == 0 || last || rec != nil, use, deadline)
		if err != nil {
			res.Failed++
			res.Correct = false
			res.info = append(res.info, fmt.Sprintf("iteration %d failed: %v", n, err))
			return untraced, traced
		}
		if use != nil {
			traced = append(traced, it)
		} else {
			untraced = append(untraced, it)
		}
		if last {
			return untraced, traced
		}
	}
}

func walls(its []iterResult) []float64 {
	out := make([]float64, len(its))
	for i, it := range its {
		out[i] = float64(it.wall)
	}
	return out
}

// runEndToEnd is the untraced run. It builds sz.worlds worlds one after
// another, times each set-up and measures each world for an equal share of
// the window, then reports the end-to-end metrics over all iterations: the
// run-to-run differences that stick to one world (where its buffers and
// goroutines landed) average out inside a run.
func runEndToEnd(w *workload, seed uint64, sz sizing) (*result, error) {
	res := &result{Correct: true, Metrics: map[string]metric{}}
	data := newDataset(w, seed)
	share := sz
	share.seconds /= float64(sz.worlds)
	var (
		c      *cluster
		its    []iterResult
		setups []float64
	)
	for i := 0; i < sz.worlds; i++ {
		start := time.Now()
		var err error
		if c, err = newCluster(w, data, sz.warmup); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		part, _ := window(c, share, nil, res)
		if res.Failed > 0 {
			return res, nil // the world may be wedged: report, do not close
		}
		c.close()
		its = append(its, part...)
		res.info = append(res.info, fmt.Sprintf("world %d: set-up %.3f s, %d iterations, iter_ms_p50 %.4f",
			i, setups[i], len(part), median(walls(part))/1e6))
	}

	ws := walls(its)
	var busy float64
	stalls := make([]float64, len(its))
	for i, it := range its {
		busy += float64(it.wall)
		stalls[i] = float64(it.stall)
	}
	gradBytes := float64(4 * totalElems(data.grads))
	vals := map[string]float64{
		"iter_ms_p50":           percentile(ws, 50) / 1e6,
		"iter_ms_p90":           percentile(ws, 90) / 1e6,
		"grad_mbps":             gradBytes * float64(len(its)) / busy * 1e3,
		"next_fwd_stall_ms_p50": median(stalls) / 1e6,
		"setup_s":               median(setups),
		"peak_rss_mb":           peakRSSMB(),
	}
	for _, m := range endToEndMetrics {
		res.set(m.name, vals[m.name], m.unit)
	}
	res.info = append(res.info,
		fmt.Sprintf("iterations %d, iter_ms_p99 %.4f (information only)", len(its), percentile(ws, 99)/1e6),
		fmt.Sprintf("scheduled backward %.3f ms, forward share %.3f ms x %d layers",
			ms(c.schedBackward), ms(c.fwdShare), numLayers(data.grads)))
	return res, nil
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// familySum adds up every series of the named registry families.
func familySum(s metrics.Snapshot, names ...string) float64 {
	var sum float64
	for _, name := range names {
		if f := s.Family(name); f != nil {
			for _, series := range f.Series {
				sum += series.Value
			}
		}
	}
	return sum
}

// counters is a reading of everything the traced run reports as a delta.
type counters struct {
	snap        metrics.Snapshot
	stats       engine.Stats
	mallocs     uint64
	wire, frame int64
}

func readCounters(c *cluster) counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	k := counters{snap: metrics.SnapshotDefault(), stats: c.engs[0].Stats(), mallocs: ms.Mallocs}
	if cn, ok := c.net.(*countingNet); ok {
		k.wire, k.frame = cn.bytes.Load(), cn.frames.Load()
	}
	return k
}

// runTraced is the traced run: iterations alternate between recorded and
// unrecorded blocks, then the engines are closed and the probes run. It
// reports the per-layer metrics.
func runTraced(w *workload, seed uint64, sz sizing, traceOut string) (*result, error) {
	res := &result{Correct: true, Metrics: map[string]metric{}}
	data := newDataset(w, seed)
	rec := newRecorder()
	c, err := newCluster(w, data, sz.warmup)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	half := sz
	half.seconds /= 2 // by time: the traced run's window is half the untraced run's
	half.iters *= 2   // by count: as many traced as untraced iterations
	before := readCounters(c)
	untraced, traced := window(c, half, rec, res)
	if res.Failed > 0 {
		return res, nil
	}
	after := readCounters(c)
	c.close()

	p, err := newProber(w, data, rec, sz.probeCalls, sz.probeLimit)
	if err != nil {
		return nil, err
	}
	probes, err := p.run()
	p.close()
	if err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}

	iters := float64(len(untraced) + len(traced))
	delta := func(names ...string) float64 {
		return familySum(after.snap, names...) - familySum(before.snap, names...)
	}
	units := float64(after.stats.Units - before.stats.Units)
	rounds := float64(after.stats.SyncRounds - before.stats.SyncRounds)
	reduced := float64(after.stats.BytesReduced - before.stats.BytesReduced)
	hits := delta("aiacc_bufpool_hits_total")
	misses := delta("aiacc_bufpool_misses_total")
	p50 := median(walls(untraced))
	tracedP50 := median(walls(traced))

	// Rank 0's spans give the engine-side timings of the traced iterations.
	var tails, layer0, overshoot []float64
	rec.perIteration(0, func(iter span, children []span) {
		var lastPush, wait, ready int64
		for _, ch := range children {
			switch {
			case ch.name == "push":
				lastPush = max(lastPush, ch.end)
			case ch.name == "wait":
				wait = ch.end - ch.start
			case strings.HasPrefix(ch.name, gradSpanPrefix):
				if data.grads[c.gradIdx[ch.name[len(gradSpanPrefix):]]].layer == 0 {
					ready = max(ready, ch.end)
				}
			}
		}
		tails = append(tails, float64(wait))
		layer0 = append(layer0, float64(ready-iter.start))
		overshoot = append(overshoot, float64(lastPush-iter.start)-float64(c.schedBackward))
	})
	var pushes []float64
	for r := 0; r < ranks; r++ {
		pushes = append(pushes, rec.durations(r, "push")...)
	}

	unitBytes := float64(w.cfg.GranularityBytes)
	segBytes := float64(4 * p.segElems)
	unitUS := probes["collective.allreduce_unit_us"]
	unitsPerIter, roundsPerIter := units/iters, rounds/iters
	// The budget of an iteration's communication time (iteration minus the
	// scheduled backward), from the probes: units share the streams, rounds
	// and unit copies are serial. What the kernels and the wire do not
	// explain of a unit stays with collective, the rest with engine.
	commUS := (p50 - float64(c.schedBackward)) / 1e3
	perStream := unitsPerIter / float64(w.cfg.Streams)
	tensorUS, compressUS, transportUS := unitCost(probes, segBytes, unitLegs(w, unitBytes))
	gradsyncUS := roundsPerIter * probes["gradsync.agree_us"]
	packingUS := roundsPerIter*probes["packing.pack_us"] + unitsPerIter*probes["packing.gather_scatter_us"]
	explainedUS := perStream*unitUS + gradsyncUS + packingUS
	res.info = append(res.info, fmt.Sprintf(
		"budget of %.0f us communication per iteration: tensor %.3f, compress %.3f, transport %.3f, collective rest %.3f, gradsync %.3f, packing %.3f, engine rest %.3f",
		commUS, perStream*tensorUS/commUS, perStream*compressUS/commUS, perStream*transportUS/commUS,
		perStream*(unitUS-tensorUS-compressUS-transportUS)/commUS, gradsyncUS/commUS, packingUS/commUS, 1-explainedUS/commUS))

	vals := probes
	vals["transport.wire_bytes_per_iter"] = (delta("aiacc_transport_tx_bytes_total", "aiacc_shm_tx_bytes_total") +
		float64(after.wire-before.wire)) / iters
	vals["transport.frames_per_iter"] = (delta("aiacc_transport_tx_frames_total", "aiacc_shm_tx_frames_total") +
		float64(after.frame-before.frame)) / iters
	vals["transport.errors"] = delta("aiacc_transport_peer_failures_total", "aiacc_transport_aborts_sent_total",
		"aiacc_collective_aborts_total")
	vals["bufpool.hit_ratio"] = hits / (hits + misses)
	vals["collective.explained_share"] = (tensorUS + compressUS + transportUS) / unitUS
	vals["gradsync.rounds_per_iter"] = roundsPerIter
	vals["packing.units_per_iter"] = unitsPerIter
	vals["packing.fill_ratio"] = reduced / (units * unitBytes)
	vals["engine.push_us"] = median(pushes) / 1e3
	vals["engine.tail_ms"] = median(tails) / 1e6
	vals["engine.layer0_ready_ms"] = median(layer0) / 1e6
	vals["engine.allocs_per_iter"] = float64(after.mallocs-before.mallocs) / iters
	vals["engine.backward_overshoot_ms"] = median(overshoot) / 1e6
	vals["engine.explained_share"] = explainedUS / commUS
	vals["trace.overhead_share"] = (tracedP50 - p50) / p50
	for _, m := range perLayerMetrics {
		v, ok := vals[m.name]
		if !ok {
			v = math.NaN()
		}
		res.set(m.name, v, m.unit)
	}

	dropped := 0
	for i := range rec.lanes {
		dropped += rec.lanes[i].dropped
	}
	res.info = append(res.info,
		fmt.Sprintf("iterations %d untraced + %d traced, iter_ms_p50 %.4f untraced / %.4f traced, spans dropped %d",
			len(untraced), len(traced), p50/1e6, tracedP50/1e6, dropped),
		fmt.Sprintf("probe sizes: unit %d elems, segment %d elems, %d gradients; default segment %d bytes",
			p.unitElems, p.segElems, len(data.grads), collective.DefaultSegmentBytes))
	if traceOut != "" {
		if err := rec.writeChromeTrace(traceOut); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	return res, nil
}

// metricDef names a metric and its unit; BENCHMARK.json repeats both.
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"iter_ms_p50", "ms"}, {"iter_ms_p90", "ms"}, {"grad_mbps", "MB/s"},
	{"next_fwd_stall_ms_p50", "ms"}, {"setup_s", "s"}, {"peak_rss_mb", "MB"},
}

var perLayerMetrics = []metricDef{
	{"tensor.reduce_us", "us"}, {"tensor.reduce_gbps", "GB/s"},
	{"compress.encode_us", "us"}, {"compress.decode_us", "us"}, {"compress.wire_ratio", "ratio"},
	{"transport.oneway_us", "us"}, {"transport.oneway_mbps", "MB/s"}, {"transport.pingpong_us", "us"},
	{"transport.intra_oneway_us", "us"}, {"transport.intra_pingpong_us", "us"},
	{"transport.wire_bytes_per_iter", "bytes"}, {"transport.frames_per_iter", "count"}, {"transport.errors", "count"},
	{"bufpool.hit_ratio", "ratio"},
	{"mpi.split_us", "us"},
	{"collective.allreduce_unit_us", "us"}, {"collective.busbw_mbps", "MB/s"}, {"collective.andbits_us", "us"},
	{"collective.explained_share", "ratio"},
	{"gradsync.agree_us", "us"}, {"gradsync.rounds_per_iter", "count"},
	{"packing.pack_us", "us"}, {"packing.gather_scatter_us", "us"}, {"packing.units_per_iter", "count"},
	{"packing.fill_ratio", "ratio"},
	{"engine.push_us", "us"}, {"engine.tail_ms", "ms"}, {"engine.layer0_ready_ms", "ms"},
	{"engine.allocs_per_iter", "count"}, {"engine.backward_overshoot_ms", "ms"}, {"engine.explained_share", "ratio"},
	{"trace.overhead_share", "ratio"},
}
