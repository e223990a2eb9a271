package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
)

// runAA runs two sides, A and B, of the same binary over all workloads,
// o.aa runs of each workload per side, and prints per workload × metric both
// sides' medians, their relative difference and the metric's bound, as the
// Markdown checked in as AA.md. The sides alternate run by run, and which
// goes first alternates too (A B, B A, A B, …): the machine changes pace for
// minutes at a time, and two runs half a minute apart mostly share a pace
// where two sets of runs minutes apart do not. Two sides of identical code
// must agree to within half the bound, or the benchmark cannot tell a
// regression of the size it gates from its own noise.
func runAA(ctx context.Context, o options, out io.Writer) (bool, error) {
	o.trace = 0
	vals := map[string][]float64{} // "A/workload/metric" → one value per run
	var env Env
	for round := 0; round < o.aa; round++ {
		sides := "AB"
		if round%2 == 1 {
			sides = "BA"
		}
		for _, s := range specs {
			for _, side := range sides {
				label := string(side)
				fmt.Fprintf(os.Stderr, "aa: round %d/%d (%s) %s\n", round+1, o.aa, label, s.name)
				rep, err := runWorkload(ctx, s, o)
				if err != nil {
					return false, err
				}
				if !rep.Correct {
					return false, fmt.Errorf("%s: %d failed ops, violations %v", s.name, rep.Failed, rep.Violations)
				}
				env = rep.Env
				for _, m := range endToEnd {
					k := label + "/" + s.name + "/" + m.name
					vals[k] = append(vals[k], rep.Metrics[m.name])
				}
			}
		}
	}
	fmt.Fprintf(out, "# A/A: two interleaved sides of runs of one binary\n\n")
	fmt.Fprintf(out, "`go run -C benchmark . -aa %d -seed %d -seconds %d` — %d runs of each workload per side, the sides alternating run by run (A B, B A, …); "+
		"each cell is the median over a side's runs of the run's value (itself the median block of %d fresh-process trials, each on one CPU). "+
		"nproc %d, GOMAXPROCS %d, %s, commit %s.\n\n",
		o.aa, o.seed, o.seconds, o.aa, trials, env.NProc, env.GOMAXPROCS, env.GoVersion, env.GitHead)
	fmt.Fprintf(out, "| workload | metric | unit | A | B | \\|B−A\\|/A | bound | within bound/2 | A runs | B runs |\n|---|---|---|---:|---:|---:|---:|:-:|---|---|\n")
	ok := true
	for _, s := range specs {
		for _, m := range endToEnd {
			as, bs := vals["A/"+s.name+"/"+m.name], vals["B/"+s.name+"/"+m.name]
			a, b := median(as), median(bs)
			diff := math.Abs(b-a) / a
			verdict := "yes"
			if diff > m.bound/2 {
				verdict, ok = "**no**", false
			}
			fmt.Fprintf(out, "| %s | %s | %s | %.6g | %.6g | %.2f %% | %.0f %% | %s | %.4g | %.4g |\n",
				s.name, m.name, m.unit, a, b, 100*diff, 100*m.bound, verdict, as, bs)
		}
	}
	return ok, nil
}
