package main

import (
	"bytes"
	"fmt"
	"text/tabwriter"

	"aiacc/metrics"
)

// metricsSummary renders what the instrumented stack measured while one
// experiment ran: gradient bytes moved, wire traffic, the writev batch-size
// distribution and the buffer-pool hit rate (DESIGN.md §7). It works on the
// delta between two registry snapshots so each experiment reports only its
// own traffic; experiments that never touch the engine or a transport (the
// pure simulator figures) produce no output.
func metricsSummary(before, after metrics.Snapshot) string {
	d := newSnapshotDelta(before, after)

	iters := d.total("aiacc_engine_iterations_total")
	reduced := d.total("aiacc_engine_bytes_reduced_total")
	txBytes := d.total("aiacc_transport_tx_bytes_total")
	txFrames := d.total("aiacc_transport_tx_frames_total")
	rxBytes := d.total("aiacc_transport_rx_bytes_total")
	rxFrames := d.total("aiacc_transport_rx_frames_total")
	hits := d.total("aiacc_bufpool_hits_total")
	misses := d.total("aiacc_bufpool_misses_total")
	oversize := d.total("aiacc_bufpool_oversize_gets_total")
	if iters == 0 && txBytes == 0 && hits+misses == 0 {
		return ""
	}

	var buf bytes.Buffer
	w := tabwriter.NewWriter(&buf, 2, 4, 2, ' ', 0)
	if iters > 0 {
		fmt.Fprintf(w, "engine\t%.0f iterations, %s reduced", iters, fmtBytes(reduced))
		if h := d.histogram("aiacc_engine_iteration_ns"); h.Count > 0 {
			fmt.Fprintf(w, ", mean iter %.2fms", h.Mean()/1e6)
		}
		fmt.Fprintln(w)
	}
	if txBytes > 0 || rxBytes > 0 {
		fmt.Fprintf(w, "wire\ttx %s in %.0f frames, rx %s in %.0f frames\n",
			fmtBytes(txBytes), txFrames, fmtBytes(rxBytes), rxFrames)
	}
	if h := d.histogram("aiacc_transport_flush_batch_frames"); h.Count > 0 {
		fmt.Fprintf(w, "writev batch\t%s (mean %.1f frames/flush)\n",
			fmtDistribution(h), h.Mean())
	}
	if hits+misses > 0 {
		fmt.Fprintf(w, "bufpool\thit rate %.1f%% (%.0f/%.0f), oversize %.0f\n",
			100*hits/(hits+misses), hits, hits+misses, oversize)
	}
	// Priority scheduler: how often urgent units preempted in-flight ones,
	// and how many wire segments resumed without re-encoding.
	preempts := d.total("aiacc_engine_sched_preemptions_total")
	resumed := d.total("aiacc_engine_sched_resumed_segments_total")
	if preempts+resumed > 0 {
		fmt.Fprintf(w, "scheduler\t%.0f preemptions, %.0f resumed segments\n", preempts, resumed)
	}
	// Ring pipeline overlap: how the segmented all-reduce's critical path
	// split between waiting on the wire and codec/reduce compute.
	wireWait := d.total("aiacc_collective_wire_wait_ns_total")
	compute := d.total("aiacc_collective_compute_ns_total")
	if wireWait+compute > 0 {
		fmt.Fprintf(w, "ring pipeline\twire wait %.1fms, codec+reduce %.1fms (%.0f%% compute)\n",
			wireWait/1e6, compute/1e6, 100*compute/(wireWait+compute))
	}
	_ = w.Flush()
	return buf.String()
}

// snapshotDelta subtracts a "before" registry snapshot from an "after" one,
// series by series.
type snapshotDelta struct {
	before map[string]map[string]metrics.SeriesSnapshot
	after  metrics.Snapshot
}

func newSnapshotDelta(before, after metrics.Snapshot) snapshotDelta {
	idx := make(map[string]map[string]metrics.SeriesSnapshot, len(before.Families))
	for _, f := range before.Families {
		series := make(map[string]metrics.SeriesSnapshot, len(f.Series))
		for _, s := range f.Series {
			series[s.LabelString()] = s
		}
		idx[f.Name] = series
	}
	return snapshotDelta{before: idx, after: after}
}

// total sums the family's per-series value deltas (counters: growth during
// the window).
func (d snapshotDelta) total(family string) float64 {
	f := d.after.Family(family)
	if f == nil {
		return 0
	}
	var sum float64
	for _, s := range f.Series {
		sum += s.Value - d.before[family][s.LabelString()].Value
	}
	return sum
}

// histogram merges the family's per-series histogram deltas into one.
func (d snapshotDelta) histogram(family string) metrics.HistogramSnapshot {
	f := d.after.Family(family)
	if f == nil {
		return metrics.HistogramSnapshot{}
	}
	var out metrics.HistogramSnapshot
	for _, s := range f.Series {
		if s.Histogram == nil {
			continue
		}
		prev := d.before[family][s.LabelString()].Histogram
		out.Count += s.Histogram.Count
		out.Sum += s.Histogram.Sum
		if len(out.Buckets) == 0 {
			out.Buckets = make([]metrics.Bucket, len(s.Histogram.Buckets))
			for i, b := range s.Histogram.Buckets {
				out.Buckets[i].UpperBound = b.UpperBound
			}
		}
		for i, b := range s.Histogram.Buckets {
			if i < len(out.Buckets) {
				out.Buckets[i].CumulativeCount += b.CumulativeCount
			}
		}
		if prev != nil {
			out.Count -= prev.Count
			out.Sum -= prev.Sum
			for i, b := range prev.Buckets {
				if i < len(out.Buckets) {
					out.Buckets[i].CumulativeCount -= b.CumulativeCount
				}
			}
		}
	}
	return out
}

// fmtDistribution renders a histogram's non-cumulative bucket shares, e.g.
// "<=1 62%  <=2 25%  <=4 13%", skipping empty buckets.
func fmtDistribution(h metrics.HistogramSnapshot) string {
	var buf bytes.Buffer
	var prev uint64
	for _, b := range h.Buckets {
		n := b.CumulativeCount - prev
		prev = b.CumulativeCount
		if n == 0 {
			continue
		}
		if buf.Len() > 0 {
			buf.WriteString("  ")
		}
		fmt.Fprintf(&buf, "<=%d %.0f%%", b.UpperBound, 100*float64(n)/float64(h.Count))
	}
	if over := h.Count - prev; over > 0 {
		if buf.Len() > 0 {
			buf.WriteString("  ")
		}
		fmt.Fprintf(&buf, ">%d %.0f%%", h.Buckets[len(h.Buckets)-1].UpperBound,
			100*float64(over)/float64(h.Count))
	}
	return buf.String()
}

func fmtBytes(v float64) string {
	switch {
	case v >= 1<<30:
		return fmt.Sprintf("%.1fGiB", v/(1<<30))
	case v >= 1<<20:
		return fmt.Sprintf("%.1fMiB", v/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.1fKiB", v/(1<<10))
	default:
		return fmt.Sprintf("%.0fB", v)
	}
}
