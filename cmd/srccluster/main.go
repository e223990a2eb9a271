// Command srccluster runs the cluster churn harness from the command line:
// per seed, the shipped fleet client, chain backends and supervisor are
// driven over virtual links through a guarded chaos schedule — kills,
// restarts, disk wipes, fail-slow links, partitions, join/leave rebalances
// overlapping live traffic, and supervisor deaths, one of them between
// journaling a commit and pushing it — while the model volume checks that
// no acknowledged write is ever lost and no request fails while a healthy
// replica of its range exists.
//
// Usage:
//
//	srccluster                 # seeds 1..50
//	srccluster -seeds 500      # wider sweep
//	srccluster -seed 11 -v     # one seed, full counter detail
//
// The default report is one summary line per seed plus aggregate latency
// digests; exit status is 1 if any invariant was violated.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"srccache/internal/cluster/churn"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "srccluster:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("srccluster", flag.ContinueOnError)
	var (
		seeds    = fs.Int64("seeds", 50, "run seeds 1..N")
		seed     = fs.Int64("seed", 0, "run this single seed instead of -seeds")
		ops      = fs.Int("ops", 0, "client operations per seed (default 400)")
		nodes    = fs.Int("nodes", 0, "initial fleet size (default 5)")
		replicas = fs.Int("replicas", 0, "replication factor (default 3)")
		verbose  = fs.Bool("v", false, "full per-seed counters")
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

	violated := 0
	totalOps := 0
	for _, s := range list {
		res, err := churn.Run(churn.Config{Seed: s, Ops: *ops, Nodes: *nodes, Replicas: *replicas})
		if err != nil {
			return 2, err
		}
		totalOps += res.Ops
		v := res.Violations()
		if len(v) > 0 {
			violated++
		}
		if *verbose {
			fmt.Fprintf(stdout, "seed %3d: %+v\n", s, res)
		} else {
			fmt.Fprintf(stdout,
				"seed %3d: ops %4d kills %d wipes %d cuts %d joins %d leaves %d commits %d aborts %d repaired %3d supkills %d midcommit %d resumes %d  read p99 %-10v write p99 %-10v %s\n",
				s, res.Ops, res.Kills, res.Wipes, res.ClientCuts+res.NodeCuts, res.Joins, res.Leaves,
				res.Commits, res.Aborts, res.RangesRepaired, res.SupKills, res.MidCommitCrashes, res.SupResumes,
				res.ReadLat.P99, res.WriteLat.P99, status(v))
		}
	}
	fmt.Fprintf(stdout, "\n%d seeds, %d client ops, %d violated\n", len(list), totalOps, violated)
	if violated > 0 {
		return 1, nil
	}
	return 0, nil
}

func status(v []string) string {
	if len(v) == 0 {
		return "ok"
	}
	return fmt.Sprintf("VIOLATED: %v", v)
}
