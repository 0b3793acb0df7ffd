package engine

import (
	"strconv"
	"time"

	"aiacc/metrics"
)

// Engine metrics (DESIGN.md §7). These quantify the paper's central claims on
// the live engine: iteration wall time, how much of it overlapped the
// caller's backward pass (Fig. 5), bytes per agreement round (eager partial
// dispatch, §V-A), packing unit sizes (granularity trade-off, §V-C) and
// per-stream utilization (multi-stream efficiency, §V-B).
type engineMetrics struct {
	iterNs     *metrics.Histogram  // full iteration wall time
	tailNs     *metrics.Histogram  // non-overlapped tail: the final dispatcher drain
	overlap    *metrics.FloatGauge // 1 - tail/iteration, last iteration
	syncNs     *metrics.Histogram  // one agreement round, engine side
	freshCount *metrics.Histogram  // gradients agreed fresh per round
	roundBytes *metrics.Histogram  // bytes dispatched per sync round
	unitBytes  *metrics.Histogram  // packing unit payload sizes

	streamBusyNs []*metrics.Counter // cumulative all-reduce time per stream

	iterations *metrics.Counter
	units      *metrics.Counter
	bytes      *metrics.Counter
	wireBytes  *metrics.Counter // codec-encoded unit bytes (what the wire carries)

	// Dispatcher observability. Queue gauges are per stream: each is written
	// under its stream's lock only.
	queueDepth  []*metrics.Gauge
	queueBytes  []*metrics.Gauge
	preemptions *metrics.Counter
	resumedSegs *metrics.Counter
}

// observeQueue updates one stream's queue gauges.
func (m *engineMetrics) observeQueue(stream, depth int, bytes int64) {
	m.queueDepth[stream].Set(int64(depth))
	m.queueBytes[stream].Set(bytes)
}

func newEngineMetrics(rank, streams int) *engineMetrics {
	rankL := metrics.L("rank", strconv.Itoa(rank))
	m := &engineMetrics{
		iterNs: metrics.NewHistogram("aiacc_engine_iteration_ns",
			"Engine iteration wall time.", metrics.LatencyNs, rankL),
		tailNs: metrics.NewHistogram("aiacc_engine_tail_wait_ns",
			"Non-overlapped communication tail per iteration (final drain of the stream dispatchers).",
			metrics.LatencyNs, rankL),
		overlap: metrics.NewFloatGauge("aiacc_engine_overlap_ratio",
			"Fraction of the last iteration overlapped with compute: 1 - tail/iteration.", rankL),
		syncNs: metrics.NewHistogram("aiacc_engine_sync_round_ns",
			"Agreement round wall time seen by the engine loop.", metrics.LatencyNs, rankL),
		freshCount: metrics.NewHistogram("aiacc_engine_fresh_gradients",
			"Gradients newly agreed per synchronization round.", metrics.SmallCount, rankL),
		roundBytes: metrics.NewHistogram("aiacc_engine_round_bytes",
			"Gradient bytes dispatched per synchronization round.", metrics.SizeBytes, rankL),
		unitBytes: metrics.NewHistogram("aiacc_engine_unit_bytes",
			"Packing unit payload size.", metrics.SizeBytes, rankL),
		iterations: metrics.NewCounter("aiacc_engine_iterations_total",
			"Engine iterations completed.", rankL),
		units: metrics.NewCounter("aiacc_engine_units_total",
			"All-reduce units dispatched.", rankL),
		bytes: metrics.NewCounter("aiacc_engine_bytes_reduced_total",
			"Gradient payload bytes reduced (pre-codec fp32).", rankL),
		wireBytes: metrics.NewCounter("aiacc_engine_unit_wire_bytes_total",
			"Codec-encoded unit bytes handed to the collectives (post-codec; half of bytes_reduced under fp16).", rankL),
		streamBusyNs: make([]*metrics.Counter, streams),
		queueDepth:   make([]*metrics.Gauge, streams),
		queueBytes:   make([]*metrics.Gauge, streams),
		preemptions: metrics.NewCounter("aiacc_engine_sched_preemptions_total",
			"In-flight units parked at a segment boundary for a more urgent unit.", rankL),
		resumedSegs: metrics.NewCounter("aiacc_engine_sched_resumed_segments_total",
			"Wire segments completed by previously preempted units (no re-encode, no re-send).", rankL),
	}
	for s := 0; s < streams; s++ {
		streamL := metrics.L("stream", strconv.Itoa(s))
		m.streamBusyNs[s] = metrics.NewCounter("aiacc_engine_stream_busy_ns_total",
			"Cumulative time each stream spent running all-reduce units; divide by wall time for per-stream utilization.",
			rankL, streamL)
		m.queueDepth[s] = metrics.NewGauge("aiacc_engine_sched_queue_depth",
			"Units queued on a stream behind its started units.", rankL, streamL)
		m.queueBytes[s] = metrics.NewGauge("aiacc_engine_sched_queue_bytes",
			"Pre-codec payload bytes queued on a stream behind its started units.", rankL, streamL)
	}
	return m
}

// publishConfig records the engine's tunables as gauges so a metrics scrape
// shows which (streams, granularity) point the run — or the auto-tuner — is
// currently at.
func (e *Engine) publishConfig() {
	rankL := metrics.L("rank", strconv.Itoa(e.comm.Rank()))
	metrics.NewGauge("aiacc_engine_streams", "Configured communication streams.", rankL).
		Set(int64(e.cfg.Streams))
	metrics.NewGauge("aiacc_engine_granularity_bytes", "Configured all-reduce unit granularity.", rankL).
		Set(e.cfg.GranularityBytes)
	metrics.NewGauge("aiacc_engine_segment_bytes", "Configured ring wire-pipelining segment size (0 = collective default).", rankL).
		Set(e.cfg.SegmentBytes)
	metrics.NewGauge("aiacc_engine_priority_depth", "Configured priority setting: 0 and 1 one class, 2 one class per priority with preemption.", rankL).
		Set(int64(e.cfg.PriorityDepth))
}

// clockStart returns the wall clock when metrics are enabled, else zero;
// paired with the IsZero checks below so a disabled registry skips every
// clock read.
func clockStart() time.Time {
	if metrics.Enabled() {
		return time.Now()
	}
	return time.Time{}
}
