package chaos

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"strconv"
	"testing"

	"srccache/internal/src"
)

// chaosDigest folds the Results of seeds 1–50, in seed order. A change
// that moves any of them re-pins it and says in CHANGES.md which seeds
// moved and why.
const chaosDigest = "56dfcbd045cc3d14"

// TestChaos runs the seeded fault schedules. Every seed must complete its
// full schedule with all durability and content invariants intact.
// CHAOS_SEEDS widens the sweep (CI's dedicated chaos job sets it); the
// default keeps the tier-1 run fast. At the default 50 seeds their Results
// must fold to chaosDigest, so schedule drift never passes unnoticed.
func TestChaos(t *testing.T) {
	seeds := seedCount(t, "CHAOS_SEEDS", 50)
	results := make([]Result, seeds)
	t.Cleanup(func() {
		if seeds != 50 || t.Failed() {
			return
		}
		h := fnv.New64a()
		for _, res := range results {
			if res == (Result{}) {
				return // a -run filter skipped this seed
			}
			fmt.Fprintf(h, "%+v\n", res)
		}
		if got := fmt.Sprintf("%016x", h.Sum64()); got != chaosDigest {
			t.Errorf("seeds 1–50 fold to digest %s, want %s: a Result moved", got, chaosDigest)
		}
	})
	for seed := int64(1); seed <= seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			t.Parallel()
			res, _, err := Run(Options{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if res.Writes == 0 || res.Reads == 0 || res.Checks == 0 {
				t.Fatalf("schedule exercised too little: %+v", res)
			}
			results[seed-1] = res
		})
	}
}

// TestChaosDeterministic replays one faulted schedule and requires
// bit-identical results, including the folded final-state signature.
func TestChaosDeterministic(t *testing.T) {
	checkReplay(t, Options{Seed: 7})
}

// TestChaosMatrixDeterministic replays two crash-matrix cells and requires
// identical results and crash stats, so any violation the probe reports is
// replayable from its seed and cell.
func TestChaosMatrixDeterministic(t *testing.T) {
	checkReplay(t,
		Options{Seed: 42, NoFaults: true, Cell: Cell{Flush: src.FlushPerSegmentGroup, Parity: src.PC, Victim: src.FIFO}},
		Options{Seed: 42, NoFaults: true, Cell: Cell{Flush: src.FlushNever, Parity: src.NPC, Victim: src.Greedy}},
	)
}

// checkReplay runs each of opts twice and requires identical outcomes.
func checkReplay(t *testing.T, opts ...Options) {
	t.Helper()
	for _, o := range opts {
		a, ac, err := Run(o)
		if err != nil {
			t.Fatal(err)
		}
		b, bc, err := Run(o)
		if err != nil {
			t.Fatal(err)
		}
		if a != b || ac != bc {
			t.Fatalf("%+v: same options, different runs:\n  %+v %+v\n  %+v %+v", o, a, ac, b, bc)
		}
	}
}

// TestChaosCoverage checks that, across the seed set, every fault kind
// actually fires — a schedule that never crashes or rebuilds proves nothing.
func TestChaosCoverage(t *testing.T) {
	var total Result
	for seed := int64(1); seed <= 12; seed++ {
		res, _, err := Run(Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		total.Crashes += res.Crashes
		total.Rebuilds += res.Rebuilds
		total.Scrubs += res.Scrubs
		total.Transients += res.Transients
		total.Unreadables += res.Unreadables
		total.Corruptions += res.Corruptions
		total.Flushes += res.Flushes
	}
	if total.Crashes == 0 || total.Rebuilds == 0 || total.Scrubs == 0 ||
		total.Transients == 0 || total.Unreadables == 0 ||
		total.Corruptions == 0 || total.Flushes == 0 {
		t.Fatalf("fault kinds not all exercised: %+v", total)
	}
}

// TestChaosFoundSeeds pins seeds that once failed. The first five lost an
// acknowledged flush before the free-space edge became one path (gc copies
// a group only when free space can absorb the round), with:
//
//	seed 342 op 644: page 1613 recovered at version 2, below the durable version 3
//	seed 622 op 537: page 928 recovered at version 1, below the durable version 2
//	seed 1462 op 734: page 1663 recovered at version 1, below the durable version 2
//	seed 1744 op 744: page 3306 recovered at version 4, below the durable version 5
//	seed 1773 op 755: page 136 recovered at version 1, below the durable version 2
//
// Whether that change fixed a cause or only moved these schedules is open;
// either way each must keep passing. The last two planted silent
// corruption on a device page that already had a latent error, a pair no
// real sector can hold: the read met the latent error first and refetched
// the page, so nothing counted the corruption. Until the harness stopped
// planting that pair they failed with:
//
//	seed 843 op 79: page 3095: planted corruption not detected
//	seed 1866 op 290: scrub missed a planted corruption
//
// Seeds 448 and 1142 left a stale stripe: a skewed crash kept some columns
// of a seal that recovery did not accept, recovery returned the group to
// the free list untrimmed, and a later seal there wrote parity over only
// the columns it filled. Each then rebuilt a column through that stripe.
// Since recovery trims the groups it frees they pass; with the rebuild's
// checked read and no trim, they fail at the rebuild step:
//
//	seed 448 op 249: rebuild step: page 3216: src: unrecoverable data loss: does not reconstruct from parity
//	seed 1142 op 238: rebuild step: page 1192: src: unrecoverable data loss: does not reconstruct from parity
//
// Seeds 149 and 203 carry the same kind of stale stripe but pass with or
// without the trim, as no read goes through it, so they are not run here.
func TestChaosFoundSeeds(t *testing.T) {
	for _, seed := range []int64{342, 622, 1462, 1744, 1773, 843, 1866, 448, 1142} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			if _, _, err := Run(Options{Seed: seed}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// seedCount reads a sweep's seed count from the environment variable env,
// or returns def.
func seedCount(t *testing.T, env string, def int64) int64 {
	v := os.Getenv(env)
	if v == "" {
		return def
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil || n <= 0 {
		t.Fatalf("bad %s %q", env, v)
	}
	return n
}

// String names the cell like "per-segment/NPC/FIFO".
func (c Cell) String() string {
	return fmt.Sprintf("%v/%v/%v", c.Flush, c.Parity, c.Victim)
}

// matrix enumerates the crash matrix: the three flush policies × PC/NPC ×
// FIFO/Greedy victims.
func matrix() []Cell {
	var cells []Cell
	for _, f := range []src.FlushPolicy{src.FlushPerSegment, src.FlushPerSegmentGroup, src.FlushNever} {
		for _, p := range []src.ParityMode{src.PC, src.NPC} {
			for _, v := range []src.VictimPolicy{src.FIFO, src.Greedy} {
				cells = append(cells, Cell{Flush: f, Parity: p, Victim: v})
			}
		}
	}
	return cells
}

// TestChaosMatrix runs every crash-matrix cell, one parallel subtest per
// seed: each seed's workload runs without faults under the three flush
// policies × PC/NPC × FIFO/Greedy, and the crash probe replays crash
// schedules at its snapshots with zero invariant violations. Recovery on
// the real code discards torn state, keeps flush-durable state, and never
// resurrects or invents data. CHAOS_MATRIX_SEEDS sets the sweep to seeds
// 1..N (CI's matrix job sets 12); the default keeps the tier-1 run fast.
// Under -v the sweep logs the table EXPERIMENTS.md cites: each cell's
// trials summed over the seeds and its largest loss window.
func TestChaosMatrix(t *testing.T) {
	cells := matrix()
	stats := make([][]CrashStats, seedCount(t, "CHAOS_MATRIX_SEEDS", 3))
	t.Cleanup(func() { logMatrix(t, cells, stats) })
	for i := range stats {
		seed := int64(i + 1)
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			t.Parallel()
			row := make([]CrashStats, len(cells))
			trials := 0
			for j, cell := range cells {
				_, cs, err := Run(Options{Seed: seed, Cell: cell, NoFaults: true})
				var v *violation
				switch {
				case errors.As(err, &v):
					t.Errorf("violation: %v %v", cell, err)
				case err != nil:
					t.Fatalf("%v: %v", cell, err)
				}
				row[j] = cs
				trials += cs.Trials
			}
			if trials < 500 {
				t.Fatalf("only %d trials over the matrix; enumeration looks broken", trials)
			}
			// The realized data-loss window must reflect the flush-policy
			// tradeoff (paper §4.1): never-flushing leaves a strictly wider
			// window than per-segment flushing under the same parity and
			// victim policy.
			loss := make(map[Cell]int)
			for j, cs := range row {
				loss[cells[j]] = cs.MaxLossWindow
			}
			for _, p := range []src.ParityMode{src.PC, src.NPC} {
				for _, v := range []src.VictimPolicy{src.FIFO, src.Greedy} {
					seg := loss[Cell{Flush: src.FlushPerSegment, Parity: p, Victim: v}]
					nev := loss[Cell{Flush: src.FlushNever, Parity: p, Victim: v}]
					if nev <= seg {
						t.Errorf("%v/%v: FlushNever loss window %d not wider than FlushPerSegment's %d",
							p, v, nev, seg)
					}
				}
			}
			stats[i] = row
		})
	}
}

// logMatrix logs the sweep's per-cell table: trials summed over the seeds,
// loss windows maxed. A seed whose run failed contributes nothing.
func logMatrix(t *testing.T, cells []Cell, stats [][]CrashStats) {
	trials := make([]int, len(cells))
	loss := make([]int, len(cells))
	total := 0
	for _, row := range stats {
		for j, cs := range row {
			trials[j] += cs.Trials
			loss[j] = max(loss[j], cs.MaxLossWindow)
			total += cs.Trials
		}
	}
	t.Logf("%d seeds, %d crash trials", len(stats), total)
	t.Logf("%-28s %8s %12s", "cell", "trials", "loss window")
	for j, c := range cells {
		t.Logf("%-28v %8d %12d", c, trials[j], loss[j])
	}
}
