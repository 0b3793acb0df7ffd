// Command aiacc-bench regenerates the paper's evaluation tables and figures
// (Table I, Figs. 2 and 9-15, the §VIII-C production workloads, the DAWNBench
// entry and the §VIII-D auto-tuning study) plus the design-choice ablations,
// on the cluster simulator.
//
// Usage:
//
//	aiacc-bench                  # run everything
//	aiacc-bench -experiment fig9 # one experiment
//	aiacc-bench -list            # list experiment ids
//	aiacc-bench -tune-budget 100 # paper-sized tuning budget
package main

import (
	"flag"
	"fmt"
	"os"

	"aiacc/internal/bench"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "aiacc-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	experiment := flag.String("experiment", "all", "experiment id to run (see -list)")
	budget := flag.Int("tune-budget", 60, "auto-tuning budget in simulated training iterations")
	format := flag.String("format", "text", "output format: text | csv")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()
	if *format != "text" && *format != "csv" {
		return fmt.Errorf("unknown format %q", *format)
	}

	s := bench.NewSuite()
	s.TuneBudget = *budget

	type entry struct {
		id  string
		run func() (bench.Table, error)
	}
	entries := []entry{
		{id: "table1", run: s.TableI},
		{id: "fig2", run: s.Fig2},
		{id: "streamutil", run: s.StreamUtil},
		{id: "fig9", run: s.Fig9},
		{id: "fig10", run: s.Fig10},
		{id: "fig11", run: s.Fig11},
		{id: "fig12", run: s.Fig12},
		{id: "fig13", run: s.Fig13},
		{id: "fig14", run: s.Fig14},
		{id: "fig15", run: s.Fig15},
		{id: "production", run: s.Production},
		{id: "dawnbench", run: s.DAWNBench},
		{id: "autotune", run: s.AutoTuneStudy},
		{id: "ablation-sync", run: s.AblationSync},
		{id: "ablation-streams", run: s.AblationStreams},
		{id: "ablation-granularity", run: s.AblationGranularity},
		{id: "ablation-algorithm", run: s.AblationAlgorithm},
		{id: "ablation-congestion", run: s.AblationCongestion},
		{id: "ablation-fp16", run: s.AblationCompression},
	}

	if *list {
		for _, e := range entries {
			fmt.Println(e.id)
		}
		return nil
	}

	ran := false
	for _, e := range entries {
		if *experiment != "all" && e.id != *experiment {
			continue
		}
		t, err := e.run()
		if err != nil {
			return fmt.Errorf("experiment %s: %w", e.id, err)
		}
		if *format == "csv" {
			fmt.Printf("# %s: %s\n", t.ID, t.Title)
			out, err := bench.RenderCSV(t)
			if err != nil {
				return err
			}
			fmt.Print(out)
			fmt.Println()
		} else {
			fmt.Println(bench.Render(t))
		}
		ran = true
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (use -list)", *experiment)
	}
	return nil
}
