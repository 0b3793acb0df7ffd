package collective

import (
	"sync/atomic"
	"time"

	"aiacc/metrics"
)

// Collective metrics (DESIGN.md §7): one duration histogram + invocation
// counter per algorithm (the `op` label records which algorithm actually ran
// — what the auto-tuner's Algorithm knob selects), the wire chunk size each
// ring op settled on, and the split between the two ring phases.
//
// The hot path must stay 0-alloc, so timing uses the opStart/obs pair: both
// are plain functions (no closures), `defer obs(h, t0)` open-codes, and when
// metrics are disabled opStart returns the zero time and obs drops the
// sample, skipping both clock reads.
type opMetrics struct {
	ns  *metrics.Histogram
	ops *metrics.Counter
}

func newOpMetrics(op string) opMetrics {
	l := metrics.L("op", op)
	return opMetrics{
		ns: metrics.NewHistogram("aiacc_collective_op_ns",
			"Collective operation wall time, by algorithm.", metrics.LatencyNs, l),
		ops: metrics.NewCounter("aiacc_collective_ops_total",
			"Collective operations run, by algorithm.", l),
	}
}

var (
	mRing          = newOpMetrics("ring_allreduce")
	mReduceScatter = newOpMetrics("reduce_scatter")
	mAllGather     = newOpMetrics("allgather")
	mHierarchical  = newOpMetrics("hierarchical_allreduce")
	mBroadcast     = newOpMetrics("broadcast")
	mAndBits       = newOpMetrics("and_bits")

	mChunkBytes = metrics.NewHistogram("aiacc_collective_chunk_wire_bytes",
		"Encoded wire size of one ring segment, observed post-encode (sampled ops, see segSamplePeriod).", metrics.SizeBytes)
	mPhaseRS = metrics.NewHistogram("aiacc_collective_phase_ns",
		"Ring phase wall time (sampled ops, see segSamplePeriod).", metrics.LatencyNs, metrics.L("phase", "reduce_scatter"))
	mPhaseAG = metrics.NewHistogram("aiacc_collective_phase_ns",
		"Ring phase wall time (sampled ops, see segSamplePeriod).", metrics.LatencyNs, metrics.L("phase", "all_gather"))

	// Segment-pipelining metrics: how finely the most recent ring op sliced
	// its chunks, where each segment's time went, and — the overlap headline —
	// how much of the op was spent blocked on the wire versus in codec and
	// reduction kernels. A pipelining win shows up as the compute counter
	// growing while wire-wait stays flat (compute hidden behind transfers).
	// An OpSum reduce-scatter hop is one fused decode-accumulate pass and
	// reports all of it under stage="reduce"; stage="decode" then holds the
	// all-gather's decodes (and the decode half of OpMin/OpMax hops).
	mSegCount = metrics.NewGauge("aiacc_collective_segment_count",
		"Wire segments per max-size ring chunk of the most recent ring all-reduce.")
	mSegEncodeNs = metrics.NewHistogram("aiacc_collective_segment_stage_ns",
		"Per-segment pipeline stage time.", metrics.LatencyNs, metrics.L("stage", "encode"))
	mSegDecodeNs = metrics.NewHistogram("aiacc_collective_segment_stage_ns",
		"Per-segment pipeline stage time.", metrics.LatencyNs, metrics.L("stage", "decode"))
	mSegReduceNs = metrics.NewHistogram("aiacc_collective_segment_stage_ns",
		"Per-segment pipeline stage time.", metrics.LatencyNs, metrics.L("stage", "reduce"))
	mWireWaitNs = metrics.NewCounter("aiacc_collective_wire_wait_ns_total",
		"Time ring ops spent blocked receiving segments from the wire (sampled estimate, see segSamplePeriod).")
	mComputeNs = metrics.NewCounter("aiacc_collective_compute_ns_total",
		"Time ring ops spent in codec and reduction kernels (sampled estimate, see segSamplePeriod).")
)

// opStart returns the wall clock when metrics are enabled, else the zero
// time; pair with obs/obsOp.
func opStart() time.Time {
	if metrics.Enabled() {
		return time.Now()
	}
	return time.Time{}
}

// obs records the elapsed time since t0, unless t0 is zero.
func obs(h *metrics.Histogram, t0 time.Time) {
	if !t0.IsZero() {
		h.ObserveSince(t0)
	}
}

// obsOp records one completed operation: wall time plus invocation count.
func obsOp(m opMetrics, t0 time.Time) {
	if !t0.IsZero() {
		m.ns.ObserveSince(t0)
		m.ops.Inc()
	}
}

// segSamplePeriod trades pipeline-metric resolution against hot-path cost:
// per-segment stage timing, ring phase timing and segment wire sizes are
// recorded on 1 ring op in segSamplePeriod (power of two); op latency and op
// counts stay exact. A small op makes ~6 clock reads per ring step when
// timed, and on virtualized hosts a clock read, and a histogram update that
// other ranks' goroutines contend for, are expensive enough that recording
// all of these on every op blows the ≤2% instrumentation budget
// (TestMetricsOverheadGate). Sampling keeps the histograms statistically
// faithful; the wire-wait/compute counters are scaled by the period so their
// totals still estimate whole-run time and their ratio — the overlap
// headline — is unbiased.
const segSamplePeriod = 8

var segSampleTick atomic.Uint64

// segTimed reports whether this ring op should time its pipeline stages:
// false whenever the registry is disabled, and on all but 1 in
// segSamplePeriod ops otherwise. The pipeline samples this once per
// operation and passes it down, so an untimed op costs one branch per stage,
// no clock reads.
func segTimed() bool {
	if !metrics.Enabled() {
		return false
	}
	return segSampleTick.Add(1)%segSamplePeriod == 0
}

// segStart returns the wall clock on timed ops, else the zero time.
func segStart(timed bool) time.Time {
	if timed {
		return time.Now()
	}
	return time.Time{}
}

// segObs records one pipeline stage's duration into its histogram and the
// op's compute-side overlap counter (scaled to estimate the unsampled total).
func segObs(h *metrics.Histogram, t0 time.Time) {
	if !t0.IsZero() {
		d := time.Since(t0).Nanoseconds()
		h.Observe(d)
		mComputeNs.Add(d * segSamplePeriod)
	}
}

// segObsNext is segObs for back-to-back stages: it records the elapsed stage
// and restarts the clock in place for the next one, saving a clock read.
func segObsNext(h *metrics.Histogram, t0 *time.Time) {
	if t0.IsZero() {
		return
	}
	now := time.Now()
	d := now.Sub(*t0).Nanoseconds()
	h.Observe(d)
	mComputeNs.Add(d * segSamplePeriod)
	*t0 = now
}

// wireObs charges the time since t0 to the wire-wait side of the overlap
// counter pair, scaled like segObs.
func wireObs(t0 time.Time) {
	if !t0.IsZero() {
		mWireWaitNs.Add(time.Since(t0).Nanoseconds() * segSamplePeriod)
	}
}
