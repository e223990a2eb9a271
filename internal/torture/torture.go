// Package torture is the crash-consistency torture engine for the SRC
// cache. It drives a seeded workload against a live cache, snapshots the
// devices' write logs at every flush epoch and after every group reclaim,
// and then replays systematically chosen partial-persistence crash
// schedules (blockdev.CrashSchedule) against each snapshot: every trial
// clones the epoch's device contents, applies one schedule per SSD,
// recovers a fresh cache instance over the crashed state, and judges it
// with the Oracle against a model of what the cache had acknowledged.
//
// Schedules come in two tiers with different obligations (see
// blockdev.CrashSchedule):
//
//   - barrier tier — each device persists a FIFO prefix of its volatile
//     write log, optionally torn mid-blob at the cut. This models real
//     drive write caches, and the Oracle's recovered check is strict.
//   - reorder tier — arbitrary subsets and single-write omissions. Firmware
//     does not promise this, so only detection-grade invariants apply:
//     recovery never errors and never surfaces a version newer than
//     acknowledged, and a page that fails to read back fails loudly.
//
// A failing trial is re-run through a greedy shrinker that minimizes the
// persisted subset before it is reported, so a Violation carries the
// smallest schedule the checker still rejects at the earliest sampled
// epoch. Runs are a pure function of Options: same seed, same trials, same
// verdicts.
package torture

import (
	"fmt"

	"srccache/internal/blockdev"
	"srccache/internal/src"
)

// Cell is one point of the configuration matrix a torture run covers.
type Cell struct {
	Flush  src.FlushPolicy
	Parity src.ParityMode
	Victim src.VictimPolicy
}

// String names the cell like "per-segment/NPC/FIFO".
func (c Cell) String() string {
	return fmt.Sprintf("%v/%v/%v", c.Flush, c.Parity, c.Victim)
}

// DefaultMatrix enumerates the full design-space slice the torture engine
// covers: the three flush policies x PC/NPC x FIFO/Greedy victims.
func DefaultMatrix() []Cell {
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

// The run's size. Each cell runs ops workload steps; at each retained
// epoch it enumerates schedulesPerEpoch seeded schedules per tier on top
// of the structured ones; and at most maxEpochs flush-epoch snapshots are
// retained per cell — when more occur, every other retained one is dropped
// so the kept set stays spread over the run.
const (
	ops               = 600
	schedulesPerEpoch = 4
	maxEpochs         = 6
)

// Options seeds one torture run. Runs with equal Options are identical.
type Options struct {
	// Seed selects the workload and the sampled crash schedules.
	Seed int64
	// Cells is the configuration matrix (default DefaultMatrix()).
	Cells []Cell
}

// Violation is one invariant failure, reported with the shrunk schedule
// that still reproduces it.
type Violation struct {
	Cell      Cell
	Seed      int64
	Epoch     int // epoch index within the cell's run
	Op        int // workload op after which the epoch was snapshotted
	Tier      string
	Invariant string
	Detail    string
	// Schedules is the shrunk per-SSD crash schedule tuple.
	Schedules []blockdev.CrashSchedule
}

func (v Violation) String() string {
	return fmt.Sprintf("%v seed %d epoch %d (op %d, %s tier): %s: %s",
		v.Cell, v.Seed, v.Epoch, v.Op, v.Tier, v.Invariant, v.Detail)
}

// CellStats summarizes one cell's run.
type CellStats struct {
	Cell   Cell
	Epochs int // epochs snapshotted (retained for trials)
	Trials int
	// MaxLossWindow is the largest realized data-loss window over the
	// retained epochs: pages a total crash at that instant would regress
	// below their newest acknowledged version — the exposure the cell's
	// flush policy leaves open.
	MaxLossWindow int
}

// Report is the outcome of one torture run.
type Report struct {
	Seed       int64
	Cells      []CellStats
	Trials     int
	Violations []Violation
}

// Run executes one seeded torture run over the configured matrix. It
// returns an error only for harness-level failures (the workload itself
// erroring); invariant violations are collected in the Report. At most one
// violation is reported per cell — the first failing trial of the earliest
// retained epoch, shrunk.
func Run(o Options) (Report, error) {
	if o.Cells == nil {
		o.Cells = DefaultMatrix()
	}
	rep := Report{Seed: o.Seed}
	for _, cell := range o.Cells {
		r, err := newCellRun(o, cell)
		if err != nil {
			return rep, fmt.Errorf("torture: cell %v: %w", cell, err)
		}
		if err := r.workload(); err != nil {
			return rep, fmt.Errorf("torture: cell %v workload: %w", cell, err)
		}
		viol, trials, err := r.trials()
		if err != nil {
			return rep, fmt.Errorf("torture: cell %v trials: %w", cell, err)
		}
		if viol != nil {
			rep.Violations = append(rep.Violations, *viol)
		}
		rep.Trials += trials
		rep.Cells = append(rep.Cells, CellStats{
			Cell:          cell,
			Epochs:        len(r.epochs),
			Trials:        trials,
			MaxLossWindow: r.maxLoss,
		})
	}
	return rep, nil
}
