// Command benchmark is the repository's benchmark: four closed-loop
// workloads of the live engine, six end-to-end metrics from an untraced run
// and the per-layer metrics from a traced run with probes. README.md in this
// directory describes the workloads, the metrics and how they interact.
//
// One run measures one workload in a fresh process:
//
//	benchmark -workload bulk_shm_fp16 -seed 1 -seconds 25 -trace 0
//
// -all re-executes the program once per workload and trace mode, -repeat n
// does that n times and checks that the sets agree, -smoke runs a few
// iterations of everything in this process.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Uint64("seed", 1, "seed of the gradient values and the seeded tensor sizes")
		seconds  = flag.Float64("seconds", 25, "length of the measured window; the traced run measures for half of it")
		trace    = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run and probes, per-layer metrics")
		traceOut = flag.String("trace-out", "", "with -trace 1, write the spans as chrome-trace JSON to this file")
		all      = flag.Bool("all", false, "run every workload, untraced and traced, one process each")
		repeat   = flag.Int("repeat", 1, "with -all, run this many sets and fail if their end-to-end metrics differ by more than the bounds in BENCHMARK.json")
		smoke    = flag.Bool("smoke", false, "run 3 iterations of every workload and 10 calls of every probe, in this process")
	)
	flag.Parse()
	var err error
	switch {
	case *smoke:
		err = runSmoke(*seed)
	case *all:
		err = runAll(*seed, *seconds, *repeat)
	case *name == "":
		flag.Usage()
		os.Exit(2)
	default:
		err = runOne(*name, *seed, defaultSizing(*seconds), *trace != 0, *traceOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// runOne runs one workload in this process and prints its result; the last
// line is the result as one JSON object.
func runOne(name string, seed uint64, sz sizing, traced bool, traceOut string) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	var res *result
	if traced {
		res, err = runTraced(w, seed, sz, traceOut)
	} else {
		res, err = runEndToEnd(w, seed, sz)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if err := printResult(w, seed, sz, res); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d iterations failed", name, res.Failed, res.Attempted)
	}
	return nil
}

func printResult(w *workload, seed uint64, sz sizing, res *result) error {
	env, err := json.Marshal(environment(w, seed, sz, res))
	if err != nil {
		return err
	}
	out := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(out, "env %s\n", env)
	for _, line := range res.info {
		fmt.Fprintf(out, "info %s: %s\n", w.name, line)
	}
	for _, defs := range [][]metricDef{endToEndMetrics, perLayerMetrics} {
		for _, def := range defs {
			if m, ok := res.Metrics[def.name]; ok {
				fmt.Fprintf(out, "%s %s %.6g %s\n", w.name, def.name, m.Value, m.Unit)
			}
		}
	}
	last, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", last)
	return out.Flush()
}

// environment is the record printed with every result.
func environment(w *workload, seed uint64, sz sizing, res *result) map[string]any {
	cfg := w.cfg
	return map[string]any{
		"commit":     commit(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"kernel":     firstLine("/proc/sys/kernel/osrelease", ""),
		"cpu":        firstLine("/proc/cpuinfo", "model name"),
		"workload":   w.name,
		"seed":       seed,
		"ranks":      ranks,
		"worlds":     sz.worlds,
		"warmup":     sz.warmup,
		"seconds":    sz.seconds,
		"iterations": res.Attempted,
		"engine_config": map[string]any{
			"streams":           cfg.Streams,
			"granularity_bytes": cfg.GranularityBytes,
			"segment_bytes":     cfg.SegmentBytes,
			"min_sync_bytes":    cfg.MinSyncBytes,
			"priority_depth":    cfg.PriorityDepth,
			"algorithm":         cfg.Algorithm.String(),
			"gpus_per_node":     cfg.GPUsPerNode,
			"coordinator":       cfg.Coordinator.String(),
			"codec":             cfg.Codec.Name(),
			"average":           cfg.Average,
		},
	}
}

// commit reads the checked-out commit from .git, if the working directory is
// the root of a git checkout.
func commit() string {
	head := firstLine(".git/HEAD", "")
	if ref, ok := strings.CutPrefix(head, "ref: "); ok {
		if id := firstLine(".git/"+ref, ""); id != "" {
			return id
		}
		return ref
	}
	if head == "" {
		return "unknown"
	}
	return head
}

// firstLine returns the first line of the file that starts with prefix,
// without the prefix and any "key : " punctuation; "" if there is none.
func firstLine(path, prefix string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, prefix); ok {
			return strings.TrimSpace(strings.TrimLeft(strings.TrimSpace(rest), ":"))
		}
	}
	return ""
}

// runSmoke runs a few iterations of every workload, untraced and traced, in
// this process: enough to show that the harness still fits the engine's API.
func runSmoke(seed uint64) error {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			if err := runOne(w.name, seed, smokeSizing(), traced, ""); err != nil {
				return err
			}
		}
	}
	return nil
}

// benchmarkFile is the part of BENCHMARK.json that -repeat needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runAll runs sets of every workload, each run in a process of its own so
// that peak_rss_mb belongs to one workload, and compares the sets.
func runAll(seed uint64, seconds float64, repeat int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var bench benchmarkFile
	if repeat > 1 {
		data, err := os.ReadFile("BENCHMARK.json")
		if err != nil {
			return fmt.Errorf("-repeat reads the bounds from BENCHMARK.json in the working directory: %w", err)
		}
		if err := json.Unmarshal(data, &bench); err != nil {
			return fmt.Errorf("BENCHMARK.json: %w", err)
		}
	}
	sets := make([]map[string]result, repeat)
	for s := range sets {
		sets[s] = map[string]result{}
		for _, w := range workloads {
			for _, trace := range []string{"0", "1"} {
				fmt.Printf("== set %d: %s, trace %s\n", s+1, w.name, trace)
				res, err := runChild(self, "-workload", w.name, "-seed", fmt.Sprint(seed),
					"-seconds", fmt.Sprint(seconds), "-trace", trace)
				if err != nil {
					return fmt.Errorf("%s trace %s: %w", w.name, trace, err)
				}
				if trace == "0" {
					sets[s][w.name] = res
				}
			}
		}
	}
	failed := 0
	for s := 1; s < repeat; s++ {
		for _, w := range workloads {
			for _, m := range bench.EndToEnd {
				a, b := sets[0][w.name].Metrics[m.Name].Value, sets[s][w.name].Metrics[m.Name].Value
				diff := math.Abs(b-a) / a
				verdict := "ok"
				if diff > m.Bound {
					verdict = "DIFFERS"
					failed++
				}
				fmt.Printf("repeat %s %s: set 1 %.6g, set %d %.6g, difference %.3f, bound %.2f: %s\n",
					w.name, m.Name, a, s+1, b, diff, m.Bound, verdict)
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d end-to-end metrics differ between sets by more than their bound", failed)
	}
	return nil
}

// runChild runs one workload in a child process, passes its output through
// and returns the result on its last line.
func runChild(self string, args ...string) (result, error) {
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	err := cmd.Run()
	os.Stdout.Write(stdout.Bytes())
	if err != nil {
		return result{}, err
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, fmt.Errorf("last output line is not a result: %w", err)
	}
	return res, nil
}
