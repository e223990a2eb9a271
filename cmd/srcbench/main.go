// Command srcbench regenerates the paper's evaluation tables and figures
// on the simulated substrate.
//
// Usage:
//
//	srcbench -list
//	srcbench -exp fig7
//	srcbench -exp all -scale 16 -requests 200000 -o results.txt
//	srcbench -exp all -parallel 8 -v
//
// Every experiment decomposes into independent virtual-time simulation
// cells; -parallel fans them out over worker goroutines (default:
// GOMAXPROCS). Tables are assembled in canonical order, so the output is
// byte-identical at any parallelism. -v traces per-cell timing on stderr.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"srccache/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "srcbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("srcbench", flag.ContinueOnError)
	var (
		list     = fs.Bool("list", false, "list available experiments and exit")
		exp      = fs.String("exp", "all", "experiment to run (name or \"all\")")
		scale    = fs.Int64("scale", 0, "size divisor vs the paper (default 16, power of two)")
		requests = fs.Int64("requests", 0, "request budget per measured run (default 200000)")
		seed     = fs.Int64("seed", 0, "workload seed")
		parallel = fs.Int("parallel", runtime.GOMAXPROCS(0), "concurrent simulation cells (1 = serial; output is identical at any value)")
		verbose  = fs.Bool("v", false, "trace per-cell progress and timing on stderr")
		out      = fs.String("o", "", "also write results to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, e := range experiments.All() {
			fmt.Fprintf(stdout, "%-8s  %s\n", e.Name, e.Paper)
		}
		return nil
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = io.MultiWriter(stdout, f)
	}

	opts := experiments.Options{
		Scale:    *scale,
		Requests: *requests,
		Seed:     *seed,
		Parallel: *parallel,
	}
	if *verbose {
		opts.Progress = progressPrinter(os.Stderr)
	}
	var todo []experiments.Experiment
	if *exp == "all" {
		todo = experiments.All()
	} else {
		e, err := experiments.Lookup(*exp)
		if err != nil {
			return err
		}
		todo = []experiments.Experiment{e}
	}
	for _, e := range todo {
		start := time.Now()
		tables, err := e.Run(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		for _, t := range tables {
			t.Fprint(w)
		}
		fmt.Fprintf(w, "[%s completed in %v]\n\n", e.Name, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// progressPrinter returns a concurrency-safe per-cell progress callback.
// Completion order varies with scheduling, so this output goes to stderr
// only — the tables on stdout stay deterministic.
func progressPrinter(w io.Writer) func(experiments.CellEvent) {
	var mu sync.Mutex
	done := make(map[string]int)
	return func(ev experiments.CellEvent) {
		mu.Lock()
		defer mu.Unlock()
		done[ev.Experiment]++
		status := ""
		if ev.Err != nil {
			status = " ERROR: " + ev.Err.Error()
		}
		fmt.Fprintf(w, "[%s %d/%d] %s %v%s\n",
			ev.Experiment, done[ev.Experiment], ev.Total, ev.Label,
			ev.Elapsed.Round(time.Millisecond), status)
	}
}
