// Integration tests for the metrics registry against the live communication
// path: exposition while real bytes move over TCP (raced), and the
// instrumentation-overhead gate for `make metrics-overhead`.
package aiacc_test

import (
	"bytes"
	"math"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"aiacc/collective"
	"aiacc/compress"
	"aiacc/metrics"
	"aiacc/mpi"
	"aiacc/tensor"
	"aiacc/transport"
)

// AIACC_METRICS=off runs the package's benchmarks with the registry
// disabled — the manual A/B knob behind the automated overhead gate below.
func init() {
	if os.Getenv("AIACC_METRICS") == "off" {
		metrics.SetEnabled(false)
	}
}

// ringHarness holds 4 ranks' comms and gradient buffers over one network.
type ringHarness struct {
	comms [4]*mpi.Comm
	datas [4][]float32
}

func newRingHarness(tb testing.TB, net transport.Network, elems int) *ringHarness {
	tb.Helper()
	h := &ringHarness{}
	for r := 0; r < 4; r++ {
		ep, err := net.Endpoint(r)
		if err != nil {
			tb.Fatal(err)
		}
		h.comms[r] = mpi.NewWorld(ep)
		h.datas[r] = make([]float32, elems)
	}
	return h
}

// close retires the comms' sender goroutines.
func (h *ringHarness) close() {
	for _, c := range h.comms {
		c.Close()
	}
}

// run performs iters ring all-reduce rounds on all 4 ranks and returns the
// wall time.
func (h *ringHarness) run(tb testing.TB, iters int) time.Duration {
	tb.Helper()
	start := time.Now()
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if err := collective.RingAllReduceCodec(h.comms[r], 0, h.datas[r], tensor.OpSum, compress.FP32{}); err != nil {
					tb.Error(err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	return time.Since(start)
}

// TestMetricsDuringLiveTCPAllReduce exercises the registry the way a
// production scrape does: the data plane increments per-stream counters and
// histograms from transport goroutines while concurrent readers take
// snapshots and render Prometheus text. Run under -race (make race), this is
// the proof that the lock-free increment path and the snapshot path are safe
// together.
func TestMetricsDuringLiveTCPAllReduce(t *testing.T) {
	net, err := transport.NewTCP(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	h := newRingHarness(t, net, 1<<14)
	defer h.close()

	before := metrics.SnapshotDefault()
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var buf bytes.Buffer
			for {
				select {
				case <-stop:
					return
				default:
				}
				buf.Reset()
				if err := metrics.Default.WritePrometheus(&buf); err != nil {
					t.Error(err)
					return
				}
				_ = metrics.SnapshotDefault()
				time.Sleep(time.Millisecond) // yield the CPU to the ranks
			}
		}()
	}

	h.run(t, 30)
	close(stop)
	readers.Wait()

	after := metrics.SnapshotDefault()
	txDelta := familyTotal(after, "aiacc_transport_tx_bytes_total") -
		familyTotal(before, "aiacc_transport_tx_bytes_total")
	// 30 iterations * ring reduce-scatter+all-gather of 64KiB per rank.
	if txDelta <= 0 {
		t.Fatalf("tx byte counters did not grow during live TCP all-reduce (delta %v)", txDelta)
	}
	var buf bytes.Buffer
	if err := metrics.Default.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE aiacc_transport_tx_bytes_total counter",
		`aiacc_transport_tx_bytes_total{peer="1",rank="0",stream="0"}`,
		"# TYPE aiacc_collective_op_ns histogram",
		`aiacc_collective_op_ns_bucket{op="ring_allreduce",le="+Inf"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus output missing %q", want)
		}
	}
}

func familyTotal(s metrics.Snapshot, name string) float64 {
	f := s.Family(name)
	if f == nil {
		return 0
	}
	var sum float64
	for _, series := range f.Series {
		sum += series.Value
	}
	return sum
}

// pairedOverhead is the timing method of the overhead gates: it runs pairs
// of short on/off trials back to back, alternating which side goes first,
// and compares them pair by pair. Pairing cancels
// the host's drift, since both sides of a pair see the same machine state;
// many short pairs make the median steady where a few long trials are not.
// It returns the median ratio and its noise floor, the standard error of a
// median estimated from the ratios' quartile spread (1.2533·σ/√pairs, with
// σ = IQR/1.349).
func pairedOverhead(pairs int, on, off func() time.Duration) (median, noise float64) {
	ratios := make([]float64, pairs)
	for i := range ratios {
		var a, b time.Duration
		if i%2 == 0 {
			b = off()
			a = on()
		} else {
			a = on()
			b = off()
		}
		ratios[i] = float64(a) / float64(b)
	}
	slices.Sort(ratios)
	iqr := ratios[(3*pairs)/4] - ratios[pairs/4]
	return ratios[pairs/2], 1.2533 * iqr / 1.349 / math.Sqrt(float64(pairs))
}

// overheadGate passes when one attempt's median paired on/off ratio is
// within bound. Each attempt is a fresh set of interleaved pairs; a few are
// allowed before failing.
func overheadGate(t *testing.T, what string, bound float64, pairs int, on, off func() time.Duration) {
	t.Helper()
	const attempts = 3
	var median float64
	for a := 0; a < attempts; a++ {
		var noise float64
		median, noise = pairedOverhead(pairs, on, off)
		t.Logf("attempt %d: %s on/off median ratio %.4f ± %.4f (noise floor) over %d pairs, bound %.2f",
			a, what, median, noise, pairs, bound)
		if median <= bound {
			return
		}
	}
	t.Fatalf("%s cost more than %.0f%%: median paired on/off ratio %.4f", what, (bound-1)*100, median)
}

// TestMetricsOverheadGate bounds the cost of full-stack instrumentation: the
// live 4-rank ring all-reduce with metrics enabled must stay within 2% of
// the same loop with the registry disabled (DESIGN.md §7 budget). Timing a
// shared-machine CI worker is noisy, so the gate is opt-in via
// AIACC_OVERHEAD_GATE=1 (make metrics-overhead) and uses overheadGate's
// interleaved pairs.
func TestMetricsOverheadGate(t *testing.T) {
	if os.Getenv("AIACC_OVERHEAD_GATE") == "" {
		t.Skip("set AIACC_OVERHEAD_GATE=1 (or run `make metrics-overhead`) to run the timing gate")
	}
	net, err := transport.NewMem(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	h := newRingHarness(t, net, 1<<16)
	defer h.close()
	defer metrics.SetEnabled(true)

	h.run(t, 20) // warm-up: registration, pools, scheduler
	trial := func(enabled bool) func() time.Duration {
		return func() time.Duration {
			metrics.SetEnabled(enabled)
			return h.run(t, 10)
		}
	}
	overheadGate(t, "instrumentation", 1.02, 501, trial(true), trial(false))
}

// TestHeartbeatOverheadGate bounds the happy-path cost of TCP liveness
// heartbeats (DESIGN.md §8): probes are idle-only, so a busy all-reduce loop
// with heartbeats enabled must stay within 5% of the same loop without them.
// Opt-in alongside the metrics gate (make metrics-overhead) because it times
// real sockets on a shared machine. The two networks live side by side and
// take turns; while one runs, the other is idle (the heartbeating one then
// probes, which costs the other side, not this one, a little).
func TestHeartbeatOverheadGate(t *testing.T) {
	if os.Getenv("AIACC_OVERHEAD_GATE") == "" {
		t.Skip("set AIACC_OVERHEAD_GATE=1 (or run `make metrics-overhead`) to run the timing gate")
	}
	trial := func(opts ...transport.TCPOption) func() time.Duration {
		net, err := transport.NewTCP(4, 1, opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = net.Close() })
		h := newRingHarness(t, net, 1<<16)
		t.Cleanup(h.close)
		h.run(t, 10) // warm-up: connections, pools
		return func() time.Duration { return h.run(t, 10) }
	}
	overheadGate(t, "heartbeats", 1.05, 301, trial(transport.WithHeartbeat(50*time.Millisecond)), trial())
}
