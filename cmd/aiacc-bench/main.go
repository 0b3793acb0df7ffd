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

	if *list {
		for _, e := range bench.Experiments {
			fmt.Println(e.ID)
		}
		return nil
	}

	ran := false
	for _, e := range bench.Experiments {
		if *experiment != "all" && e.ID != *experiment {
			continue
		}
		t, err := e.Run(s)
		if err != nil {
			return fmt.Errorf("experiment %s: %w", e.ID, err)
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
