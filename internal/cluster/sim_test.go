package cluster_test

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"srccache/internal/cluster/churn"
)

// seedCount reads CLUSTER_SEEDS (CI's cluster job widens the sweep with
// it); the default keeps the tier-1 run fast.
func seedCount(t *testing.T) int64 {
	v := os.Getenv("CLUSTER_SEEDS")
	if v == "" {
		return 50
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil || n <= 0 {
		t.Fatalf("bad CLUSTER_SEEDS %q", v)
	}
	return n
}

// sweep runs every seed of the sweep as a parallel subtest. Under -v it
// logs one line per seed and the aggregate row EXPERIMENTS.md cites.
func sweep(t *testing.T, cfg churn.Config) {
	res := make([]churn.Result, seedCount(t))
	t.Cleanup(func() { logSweep(t, res) })
	for i := range res {
		cfg := cfg
		cfg.Seed = int64(i + 1)
		t.Run(fmt.Sprintf("seed%03d", cfg.Seed), func(t *testing.T) {
			t.Parallel()
			r, err := churn.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res[i] = r
			if v := r.Violations(); len(v) != 0 {
				t.Fatalf("invariants violated: %v\n%+v", v, r)
			}
			if r.Reads == 0 || r.Writes == 0 {
				t.Fatalf("schedule exercised too little: %+v", r)
			}
		})
	}
}

// logSweep logs each seed's counters and latency digests, then their sum.
// A seed whose run failed logs zeros.
func logSweep(t *testing.T, res []churn.Result) {
	var total churn.Result
	violated := 0
	for i, r := range res {
		add(&total, r)
		status := "ok"
		if v := r.Violations(); len(v) != 0 {
			violated++
			status = fmt.Sprintf("VIOLATED: %v", v)
		}
		t.Logf("seed %3d: %s read p99 %-10v write p99 %-10v %s",
			i+1, counters(r), r.ReadLat.P99, r.WriteLat.P99, status)
	}
	t.Logf("%d seeds: %s, %d violated", len(res), counters(total), violated)
}

// counters formats the columns of EXPERIMENTS.md's churn table.
func counters(r churn.Result) string {
	return fmt.Sprintf("ops %d kills %d wipes %d cuts %d/%d joins %d leaves %d commits %d (%d) aborts %d "+
		"repaired %d misses %d supkills %d midcommit %d resumes %d stalls %d",
		r.Ops, r.Kills, r.Wipes, r.ClientCuts, r.NodeCuts, r.Joins, r.Leaves, r.Commits, r.LeaveCommits,
		r.Aborts, r.RangesRepaired, r.Misses, r.SupKills, r.MidCommitCrashes, r.SupResumes, r.Stalls)
}

// add sums r's counters into total.
func add(total *churn.Result, r churn.Result) {
	total.Ops += r.Ops
	total.Kills += r.Kills
	total.Restarts += r.Restarts
	total.Wipes += r.Wipes
	total.Degrades += r.Degrades
	total.ClientCuts += r.ClientCuts
	total.NodeCuts += r.NodeCuts
	total.CutHeals += r.CutHeals
	total.Joins += r.Joins
	total.Leaves += r.Leaves
	total.Commits += r.Commits
	total.LeaveCommits += r.LeaveCommits
	total.Aborts += r.Aborts
	total.Stalls += r.Stalls
	total.RangesRepaired += r.RangesRepaired
	total.Misses += r.Misses
	total.Reboots += r.Reboots
	total.Failovers += r.Failovers
	total.Refetches += r.Refetches
	total.SupKills += r.SupKills
	total.SupRestarts += r.SupRestarts
	total.SupResumes += r.SupResumes
	total.SupRecoverPushes += r.SupRecoverPushes
	total.MidCommitCrashes += r.MidCommitCrashes
	total.RepairRebalanceCrashes += r.RepairRebalanceCrashes
	total.SlowJoinHeads += r.SlowJoinHeads
	total.DownDetected = total.DownDetected || r.DownDetected
	total.SlowDetected = total.SlowDetected || r.SlowDetected
}

// TestClusterChurn is the acceptance harness, run on the shipped fleet,
// chain backends and supervisor: every seeded schedule — kills, restarts,
// wipes, fail-slow links, partitions, joins and leaves, supervisor deaths —
// must complete with zero acknowledged-write loss and zero failed requests
// while a healthy replica existed.
func TestClusterChurn(t *testing.T) { sweep(t, churn.Config{}) }

// TestClusterChurnDeterministic replays one schedule and requires an
// identical Result, signature included — the property every debugging
// session depends on.
func TestClusterChurnDeterministic(t *testing.T) {
	cfg := churn.Config{Seed: 11, Ops: 600}
	a, err := churn.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := churn.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b || a.Signature() != b.Signature() {
		t.Fatalf("same seed, different runs:\n  %+v\n  %+v", a, b)
	}
	c, err := churn.Run(churn.Config{Seed: 12, Ops: 600})
	if err != nil {
		t.Fatal(err)
	}
	if c.Signature() == a.Signature() {
		t.Fatal("different seeds produced identical signatures")
	}
}

// coverage sums the coverage counters of seeds 1..n.
func coverage(t *testing.T, n int64, cfg churn.Config) churn.Result {
	var total churn.Result
	for seed := int64(1); seed <= n; seed++ {
		cfg.Seed = seed
		r, err := churn.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if v := r.Violations(); len(v) != 0 {
			t.Fatalf("seed %d: invariants violated: %v", seed, v)
		}
		add(&total, r)
	}
	return total
}

// TestClusterChurnCoverage checks that, across a seed sweep, every
// data-plane fault class actually fires, both failure modes are detected,
// and every quarantine trigger and client resilience path is taken — a
// schedule that never kills or partitions anything proves nothing.
func TestClusterChurnCoverage(t *testing.T) {
	total := coverage(t, 16, churn.Config{Ops: 800})
	if total.Kills == 0 || total.Restarts == 0 || total.Wipes == 0 || total.Degrades == 0 ||
		total.ClientCuts == 0 || total.NodeCuts == 0 || total.CutHeals == 0 {
		t.Fatalf("fault kinds not all exercised: %+v", total)
	}
	if total.Joins == 0 || total.Leaves == 0 || total.Commits == 0 || total.LeaveCommits == 0 {
		t.Fatalf("membership churn not exercised: %+v", total)
	}
	if total.RangesRepaired == 0 || total.Misses == 0 || total.Reboots == 0 {
		t.Fatalf("quarantine and repair not exercised: %+v", total)
	}
	if total.Failovers == 0 || total.Refetches == 0 {
		t.Fatalf("client resilience paths not exercised: %+v", total)
	}
	if !total.DownDetected || !total.SlowDetected {
		t.Fatalf("detector never classified both failure modes: %+v", total)
	}
}

// TestClusterChurnLatencyObserved pins that the harness produces usable
// latency digests — the EXPERIMENTS table row is built from these.
func TestClusterChurnLatencyObserved(t *testing.T) {
	res, err := churn.Run(churn.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.ReadLat.Count == 0 || res.WriteLat.Count == 0 {
		t.Fatalf("no latency observations: %+v", res)
	}
	if res.ReadLat.P99 < res.ReadLat.P50 || res.WriteLat.P99 < res.WriteLat.P50 {
		t.Fatalf("inconsistent percentiles: %+v %+v", res.ReadLat, res.WriteLat)
	}
	if res.Elapsed <= 0 {
		t.Fatal("virtual clock did not advance")
	}
}

// denser is the control-plane-heavy schedule: chaos every 10 ops instead
// of 20, so supervisor kills, mid-commit crashes and resumed transitions
// land twice as often per client op.
var denser = churn.Config{ChurnEvery: 10}

// TestSupervisedChurn sweeps the seeds again on the denser schedule, where
// the supervisor's own failures compose with the data plane's.
func TestSupervisedChurn(t *testing.T) { sweep(t, denser) }

// TestSupervisedChurnDeterministic: a run is a pure function of its config
// — supervisor crashes, journal recoveries and all — and the denser
// schedule is a different schedule, not a relabelled one.
func TestSupervisedChurnDeterministic(t *testing.T) {
	cfg := denser
	cfg.Seed, cfg.Ops = 9, 600
	a, err := churn.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := churn.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b || a.Signature() != b.Signature() {
		t.Fatalf("same seed, different runs:\n  %+v\n  %+v", a, b)
	}
	c, err := churn.Run(churn.Config{Seed: 9, Ops: 600})
	if err != nil {
		t.Fatal(err)
	}
	if c.Signature() == a.Signature() {
		t.Fatal("denser and default schedules produced identical signatures")
	}
}

// TestSupervisedChurnCoverage requires every seed class's composed fault
// to fire, and the supervisor's lifecycle to be exercised end to end:
// kills and journal recoveries, mid-commit crashes a successor finishes,
// resumed transitions, node crashes during repair during rebalance,
// fail-slow heads during joins, and committed leaves.
func TestSupervisedChurnCoverage(t *testing.T) {
	cfg := denser
	cfg.Ops = 800
	total := coverage(t, 18, cfg)
	if total.SupKills == 0 || total.SupRestarts == 0 {
		t.Fatalf("supervisor lifecycle faults never fired: %+v", total)
	}
	if total.MidCommitCrashes == 0 || total.SupRecoverPushes == 0 {
		t.Fatalf("mid-commit crash/recovery never composed: %+v", total)
	}
	if total.SupResumes == 0 {
		t.Fatalf("supervisor never resumed a journaled transition: %+v", total)
	}
	if total.RepairRebalanceCrashes == 0 || total.SlowJoinHeads == 0 {
		t.Fatalf("composed node faults never fired: %+v", total)
	}
	if total.Commits == 0 || total.Joins == 0 || total.LeaveCommits == 0 {
		t.Fatalf("supervised membership churn not exercised: %+v", total)
	}
}

// TestClusterChurnFoundSeeds pins the first seed that fails without each
// fix the seeds forced on the shipped protocol (DESIGN.md §12 lists them);
// the ones outside the default sweep's shape would otherwise go unrun.
func TestClusterChurnFoundSeeds(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  churn.Config
	}{
		{"restart-quarantine", churn.Config{Seed: 1}},
		{"client-reports-skipped-owner", churn.Config{Seed: 2}},
		{"write-refetches-placement", churn.Config{Seed: 3}},
		{"unreported-miss-refuses-write", churn.Config{Seed: 7}},
		{"quarantined-copy-refuses-write", churn.Config{Seed: 36}},
		{"refetch-after-failed-pass", churn.Config{Seed: 370, Nodes: 4, Replicas: 2}},
	} {
		t.Run(c.name, func(t *testing.T) {
			res, err := churn.Run(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if v := res.Violations(); len(v) != 0 {
				t.Fatalf("invariants violated: %v\n%+v", v, res)
			}
		})
	}
}
