// Command srctorture runs the crash-consistency torture engine from the
// command line: a seeded workload per configuration cell, systematic
// partial-persistence crash schedules at every flush epoch, and recovery
// invariant checks over each crashed state.
//
// Usage:
//
//	srctorture                 # seeds 1..4 over the full matrix
//	srctorture -seeds 32       # wider sweep
//	srctorture -seed 7 -v      # one seed, per-cell detail
//
// The default report is a per-cell table of trial counts and realized
// data-loss windows (the flush-policy exposure the paper's §4.1 trades
// against flush traffic), followed by any invariant violations with their
// shrunk schedules. The exit status is 1 if any violation was found.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"srccache/internal/torture"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "srctorture:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("srctorture", flag.ContinueOnError)
	var (
		seeds     = fs.Int64("seeds", 4, "run seeds 1..N")
		seed      = fs.Int64("seed", 0, "run this single seed instead of -seeds")
		ops       = fs.Int("ops", 0, "workload operations per cell (default 600)")
		schedules = fs.Int("k", 0, "seeded schedules per tier per epoch (default 4)")
		epochs    = fs.Int("epochs", 0, "flush-epoch snapshots retained per cell (default 6)")
		verbose   = fs.Bool("v", false, "per-seed cell detail instead of the aggregate table")
	)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	var list []int64
	if *seed != 0 {
		list = []int64{*seed}
	} else {
		for s := int64(1); s <= *seeds; s++ {
			list = append(list, s)
		}
	}

	// Aggregate across seeds: trials summed, loss windows maxed.
	type agg struct {
		trials int
		loss   int
	}
	cells := make(map[torture.Cell]*agg)
	var order []torture.Cell
	var violations []torture.Violation
	trials := 0
	for _, s := range list {
		rep, err := torture.Run(torture.Options{
			Seed:              s,
			Ops:               *ops,
			SchedulesPerEpoch: *schedules,
			MaxEpochs:         *epochs,
		})
		if err != nil {
			return 2, err
		}
		trials += rep.Trials
		violations = append(violations, rep.Violations...)
		for _, cs := range rep.Cells {
			a, ok := cells[cs.Cell]
			if !ok {
				a = &agg{}
				cells[cs.Cell] = a
				order = append(order, cs.Cell)
			}
			a.trials += cs.Trials
			if cs.MaxLossWindow > a.loss {
				a.loss = cs.MaxLossWindow
			}
			if *verbose {
				fmt.Fprintf(stdout, "seed %d %-28v epochs %2d trials %4d loss %4d\n",
					s, cs.Cell, cs.Epochs, cs.Trials, cs.MaxLossWindow)
			}
		}
	}

	sort.Slice(order, func(i, j int) bool { return order[i].String() < order[j].String() })
	fmt.Fprintf(stdout, "%d seeds, %d crash trials\n\n", len(list), trials)
	fmt.Fprintf(stdout, "%-28s %8s %12s\n", "cell", "trials", "loss window")
	for _, c := range order {
		fmt.Fprintf(stdout, "%-28v %8d %12d\n", c, cells[c].trials, cells[c].loss)
	}
	if len(violations) == 0 {
		fmt.Fprintf(stdout, "\nno invariant violations\n")
		return 0, nil
	}
	fmt.Fprintf(stdout, "\n%d violation(s):\n", len(violations))
	for _, v := range violations {
		fmt.Fprintf(stdout, "  %s\n", v)
	}
	return 1, nil
}
