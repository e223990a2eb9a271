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
		t.Errorf("violation: %s", v)
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

// TestTortureBitesOldestWins plants a recovery bug — the OldestWins hook
// inverts §4.1's newest-wins replay order, a silent-staleness bug no
// downstream safeguard catches — and asserts the checker reports exactly
// that violation, shrunk to the minimal schedule. The same cell and seed
// without the hook must be clean, so the bite is attributable to the
// planted bug alone.
func TestTortureBitesOldestWins(t *testing.T) {
	cell := Cell{Flush: src.FlushPerSegmentGroup, Parity: src.PC, Victim: src.FIFO}
	o := Options{Seed: 1, Cells: []Cell{cell}}

	clean, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Violations) != 0 {
		t.Fatalf("control run without hooks is not clean: %v", clean.Violations)
	}

	o.Hooks = src.RecoveryHooks{OldestWins: true}
	rep, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 1 {
		t.Fatalf("want exactly one violation for the planted bug, got %d: %v",
			len(rep.Violations), rep.Violations)
	}
	v := rep.Violations[0]
	if v.Cell != cell || v.Seed != 1 {
		t.Errorf("violation attributed to %v seed %d, want %v seed 1", v.Cell, v.Seed, cell)
	}
	if v.Tier != tierBarrier {
		t.Errorf("tier %q, want %q: stale mappings must already fail under FIFO-legal crashes", v.Tier, tierBarrier)
	}
	// The stale mapping claims the newest version but points at an old
	// generation's slot, so verification of the recovered map fails loudly.
	if v.Invariant != "torn-discarded" {
		t.Errorf("invariant %q, want torn-discarded: %s", v.Invariant, v)
	}
	if len(v.Schedules) != numSSD {
		t.Fatalf("violation carries %d schedules, want %d", len(v.Schedules), numSSD)
	}
	// The bug corrupts recovery of committed state, so the shrinker must
	// reduce all the way to the empty (drop-everything) schedule: the
	// minimal reproduction needs no surviving volatile writes at all.
	for i, s := range v.Schedules {
		if keptCount(s) != 0 {
			t.Errorf("ssd %d shrunk schedule still keeps %d writes, want 0", i, keptCount(s))
		}
	}
}

// TestTortureParseHooksAbsorbed documents defense in depth: weakening the
// summary parse (no CRC, no generation pairing) does NOT produce checker
// violations, because two independent safeguards absorb every
// misapplication those hooks allow. Entries are applied from the MS
// summary only, and barrier-tier (FIFO-prefix) crashes cannot forge a
// generation-matching hybrid — the trim that would expose an old summary
// always precedes the reuse writes in the same device's log. Whatever the
// lenient parse does accept is then caught loudly by per-page tag
// verification or superseded by newest-wins replay. If this test ever
// starts failing, one of those second-line safeguards has been weakened.
func TestTortureParseHooksAbsorbed(t *testing.T) {
	o := Options{
		Seed: 1,
		Cells: []Cell{
			{Flush: src.FlushPerSegmentGroup, Parity: src.NPC, Victim: src.FIFO},
			{Flush: src.FlushPerSegment, Parity: src.PC, Victim: src.Greedy},
			{Flush: src.FlushNever, Parity: src.PC, Victim: src.FIFO},
		},
		Hooks: src.RecoveryHooks{SkipSummaryCRC: true, SkipGenerationCheck: true},
	}
	rep, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("parse hooks escaped the second-line safeguards: %s", v)
	}
}
