package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"aiacc/compress"
)

func TestPercentile(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30}
	for _, tc := range []struct{ p, want float64 }{
		{0, 10}, {50, 30}, {100, 50}, {25, 20}, {90, 46}, {12.5, 15},
	} {
		if got := percentile(xs, tc.p); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile([]float64{7}, 90); got != 7 {
		t.Errorf("single sample: got %v", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("empty input must give NaN")
	}
	if !reflect.DeepEqual(xs, []float64{50, 10, 40, 20, 30}) {
		t.Error("percentile reordered its input")
	}
}

func TestForwardStall(t *testing.T) {
	const msec = time.Millisecond
	for _, tc := range []struct {
		name      string
		layerDone []time.Duration
		backward  time.Duration
		share     time.Duration
		want      time.Duration
	}{
		// Every gradient is there when backward ends: the forward never waits.
		{"all early", []time.Duration{1 * msec, 2 * msec, 3 * msec}, 4 * msec, msec, 0},
		// Layer 0 arrives 6 ms after backward ended; later layers are in time.
		{"first layer late", []time.Duration{10 * msec, 2 * msec, 3 * msec}, 4 * msec, msec, 6 * msec},
		// Layer 2 arrives at 20: layers 0 and 1 ran from 4 to 6, so it waits 14.
		{"last layer late", []time.Duration{1 * msec, 2 * msec, 20 * msec}, 4 * msec, msec, 14 * msec},
		// Layer 0 stalls to 10, runs to 11; layer 1 arrives at 10.5: no more stall.
		{"hidden behind an earlier stall", []time.Duration{10 * msec, 10*msec + 500*time.Microsecond}, 0, msec, 10 * msec},
		// Two separate stalls add up: wait to 5, run to 6, wait to 9.
		{"two stalls", []time.Duration{5 * msec, 9 * msec}, 0, msec, 8 * msec},
	} {
		if got := forwardStall(tc.layerDone, tc.backward, tc.share); got != tc.want {
			t.Errorf("%s: stall = %v, want %v", tc.name, got, tc.want)
		}
	}
	if got := forwardShare(8*msec, 4); got != msec {
		t.Errorf("forwardShare(8ms, 4) = %v, want 1ms", got)
	}
	if got := forwardShare(0, 12); got != 100*time.Microsecond {
		t.Errorf("forwardShare floor = %v, want 100µs", got)
	}
}

func TestProfilesRepeatAndDependOnSeed(t *testing.T) {
	for _, w := range workloads {
		g1, b1 := w.profile(7)
		g2, b2 := w.profile(7)
		if !reflect.DeepEqual(g1, g2) || !reflect.DeepEqual(b1, b2) {
			t.Errorf("%s: profile differs between two calls with one seed", w.name)
		}
		pushed := map[int]bool{}
		lastLayer := math.MaxInt
		for _, b := range b1 {
			for _, g := range b.grads {
				if pushed[g] {
					t.Errorf("%s: gradient %d pushed twice", w.name, g)
				}
				pushed[g] = true
				if g1[g].layer > lastLayer {
					t.Errorf("%s: push order is not backward at gradient %d", w.name, g)
				}
				lastLayer = g1[g].layer
			}
		}
		if len(pushed) != len(g1) {
			t.Errorf("%s: %d of %d gradients pushed", w.name, len(pushed), len(g1))
		}
	}
	small, err := workloadByName("manysmall_tcp_fp32")
	if err != nil {
		t.Fatal(err)
	}
	g7, bursts := small.profile(7)
	g8, _ := small.profile(8)
	if reflect.DeepEqual(g7, g8) {
		t.Error("manysmall_tcp_fp32: tensor sizes do not depend on the seed")
	}
	if len(g7) != 162 || len(bursts) != 9 || len(bursts[0].grads) != 18 {
		t.Errorf("manysmall_tcp_fp32: %d gradients in %d bursts of %d", len(g7), len(bursts), len(bursts[0].grads))
	}
	for _, g := range g7 {
		if g.elems < 256 || g.elems > 12<<10 {
			t.Errorf("%s has %d elements", g.name, g.elems)
		}
	}

	a, b, c := make([]float32, 1000), make([]float32, 1000), make([]float32, 1000)
	fillValues(a, 7, 2, 5)
	fillValues(b, 7, 2, 5)
	fillValues(c, 8, 2, 5)
	if !reflect.DeepEqual(a, b) {
		t.Error("values differ between two calls with one seed")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("values do not depend on the seed")
	}
	fillValues(c, 7, 3, 5)
	if reflect.DeepEqual(a, c) {
		t.Error("values do not depend on the rank")
	}
}

// TestValuesExactUnderFP16 checks what makes the expected mean bit-exact for
// every codec and reduction order: each value, each partial sum in any order
// and the total survive an fp16 round trip unchanged.
func TestValuesExactUnderFP16(t *testing.T) {
	roundTrip := func(v []float32) []float32 {
		codec := compress.FP16{}
		out := make([]float32, len(v))
		if err := codec.Decode(out, codec.EncodeTo(nil, v)); err != nil {
			t.Fatal(err)
		}
		return out
	}
	const n = 4096
	var vals [ranks][]float32
	seen := map[float32]bool{}
	for r := range vals {
		vals[r] = make([]float32, n)
		fillValues(vals[r], 11, r, 0)
		for _, v := range vals[r] {
			if v < -4 || v >= 4 || v*8 != float32(math.Trunc(float64(v*8))) {
				t.Fatalf("value %v is not a multiple of 1/8 in [-4, 4)", v)
			}
			seen[v] = true
		}
		if !reflect.DeepEqual(roundTrip(vals[r]), vals[r]) {
			t.Fatalf("rank %d: values change under fp16", r)
		}
	}
	if len(seen) != 64 {
		t.Errorf("generator produced %d of the 64 possible values", len(seen))
	}
	// Every subset sum, which covers every partial sum of every order.
	for mask := 1; mask < 1<<ranks; mask++ {
		sum := make([]float32, n)
		for r := 0; r < ranks; r++ {
			if mask&(1<<r) != 0 {
				for i := range sum {
					sum[i] += vals[r][i]
				}
			}
		}
		if !reflect.DeepEqual(roundTrip(sum), sum) {
			t.Fatalf("partial sum of ranks %04b changes under fp16", mask)
		}
	}
}

func TestDatasetExpectedMean(t *testing.T) {
	w, err := workloadByName("sched_skew_slowlink")
	if err != nil {
		t.Fatal(err)
	}
	d := newDataset(w, 3)
	for g := range d.grads {
		for _, i := range []int{0, len(d.expected[g]) / 2, len(d.expected[g]) - 1} {
			var sum float64
			for r := 0; r < ranks; r++ {
				sum += float64(d.pristine[r][g][i])
			}
			if float64(d.expected[g][i]) != sum/ranks {
				t.Fatalf("gradient %d element %d: expected %v, exact mean %v", g, i, d.expected[g][i], sum/ranks)
			}
		}
	}
}

func TestRecorderFoldsIterations(t *testing.T) {
	rec := newRecorder()
	for iter := int32(1); iter <= 2; iter++ {
		base := int64(iter) * 1000
		idx := rec.begin(0, span{name: "iteration", iter: iter, parent: -1, start: base})
		rec.add(0, span{name: "push", iter: iter, parent: idx, start: base + 1, end: base + 2})
		rec.add(0, span{name: "wait", iter: iter, parent: rec.current(0), start: base + 2, end: base + 50})
		rec.finish(0, idx, base+50)
	}
	if rec.current(0) != -1 {
		t.Error("an iteration span is still open")
	}
	var seen []int32
	rec.perIteration(0, func(iter span, children []span) {
		seen = append(seen, iter.iter)
		if iter.end-iter.start != 50 || len(children) != 2 || children[1].name != "wait" {
			t.Errorf("iteration %d: span %+v with children %+v", iter.iter, iter, children)
		}
	})
	if !reflect.DeepEqual(seen, []int32{1, 2}) {
		t.Errorf("folded iterations %v", seen)
	}
	if got := rec.durations(0, "wait"); !reflect.DeepEqual(got, []float64{48, 48}) {
		t.Errorf("wait durations %v", got)
	}
}

// TestBenchmarkFileMatchesHarness keeps BENCHMARK.json and the program in
// step: the same workloads and the same metrics with the same units.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var file struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range file.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads: file %v, program %v", names, workloadNames())
	}
	check := func(kind string, got []entry, want []metricDef) {
		var defs []metricDef
		for _, e := range got {
			defs = append(defs, metricDef{e.Name, e.Unit})
		}
		if !reflect.DeepEqual(defs, want) {
			t.Errorf("%s metrics: file %v, program %v", kind, defs, want)
		}
	}
	check("end_to_end", file.EndToEnd, endToEndMetrics)
	check("per_layer", file.PerLayer, perLayerMetrics)
}

// TestSmoke runs 3 iterations of every workload, untraced and traced with
// the probes at 10 calls, so that an API change that breaks the harness
// fails here and not in the next benchmark run.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			var res *result
			var err error
			if traced {
				res, err = runTraced(w, 5, smokeSizing(), "")
			} else {
				res, err = runEndToEnd(w, 5, smokeSizing())
			}
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			want := endToEndMetrics
			if traced {
				want = perLayerMetrics
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 || len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: correct %v, %d of %d failed, %d metrics, info %v",
					w.name, traced, res.Correct, res.Failed, res.Attempted, len(res.Metrics), res.info)
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
					t.Errorf("%s: metric %s missing or in %q", w.name, m.name, got.Unit)
				}
			}
		}
	}
}
