package torture

import (
	"fmt"
	"os"
	"reflect"
	"strconv"
	"testing"

	"srccache/internal/src"
)

// TestTortureSeeds is the headline check, one subtest per seed: the full
// configuration matrix — three flush policies x PC/NPC x FIFO/Greedy —
// survives every enumerated crash schedule with zero invariant violations.
// Recovery on the real code discards torn state, keeps flush-durable
// state, and never resurrects or invents data. TORTURE_SEEDS sets the
// sweep to seeds 1..N (CI's torture job sets 12); the default keeps the
// tier-1 run fast. Under -v the sweep logs the table EXPERIMENTS.md cites:
// each cell's trials summed over the seeds and its largest loss window.
func TestTortureSeeds(t *testing.T) {
	seeds := 3
	if v := os.Getenv("TORTURE_SEEDS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			t.Fatalf("bad TORTURE_SEEDS %q", v)
		}
		seeds = n
	}
	reps := make([]Report, seeds)
	t.Cleanup(func() { logTable(t, reps) })
	for i := range reps {
		seed := int64(i + 1)
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			t.Parallel()
			rep, err := Run(Options{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			checkMatrix(t, rep)
			reps[i] = rep
		})
	}
}

// checkMatrix checks one seed's run over DefaultMatrix.
func checkMatrix(t *testing.T, rep Report) {
	t.Helper()
	for _, v := range rep.Violations {
		kept := make([]int, len(v.Schedules))
		for i, s := range v.Schedules {
			kept[i] = keptCount(s)
		}
		t.Errorf("violation: %s; shrunk schedule keeps %v writes", v, kept)
	}
	if len(rep.Cells) != len(DefaultMatrix()) {
		t.Fatalf("ran %d cells, want %d", len(rep.Cells), len(DefaultMatrix()))
	}
	if rep.Trials < 500 {
		t.Fatalf("only %d trials over the matrix; enumeration looks broken", rep.Trials)
	}
	// The realized data-loss window must reflect the flush-policy tradeoff
	// (paper §4.1): never-flushing leaves a strictly wider window than
	// per-segment flushing under the same parity and victim policy.
	loss := make(map[Cell]int)
	for _, cs := range rep.Cells {
		loss[cs.Cell] = cs.MaxLossWindow
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
}

// logTable logs the sweep's per-cell table: trials summed over the seeds,
// loss windows maxed. A seed whose run failed contributes nothing.
func logTable(t *testing.T, reps []Report) {
	cells := DefaultMatrix()
	trials := make([]int, len(cells))
	loss := make([]int, len(cells))
	total, violations := 0, 0
	for _, rep := range reps {
		total += rep.Trials
		violations += len(rep.Violations)
		for i, cs := range rep.Cells {
			trials[i] += cs.Trials
			loss[i] = max(loss[i], cs.MaxLossWindow)
		}
	}
	t.Logf("%d seeds, %d crash trials, %d violations", len(reps), total, violations)
	t.Logf("%-28s %8s %12s", "cell", "trials", "loss window")
	for i, c := range cells {
		t.Logf("%-28v %8d %12d", c, trials[i], loss[i])
	}
}

// TestTortureDeterministic re-runs identical options and demands identical
// reports: same trials, same stats, same verdicts. The engine is a pure
// function of its seed, so any failure it ever reports is replayable.
func TestTortureDeterministic(t *testing.T) {
	o := Options{
		Seed: 42,
		Cells: []Cell{
			{Flush: src.FlushPerSegmentGroup, Parity: src.PC, Victim: src.FIFO},
			{Flush: src.FlushNever, Parity: src.NPC, Victim: src.Greedy},
		},
	}
	a, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two runs with identical options diverged:\n%+v\n%+v", a, b)
	}
}
