package experiments

import (
	"sync"
	"sync/atomic"
	"time"
)

// Parallel experiment execution. Every experiment decomposes into
// independent cells — one (scheme × trace group × parameter point)
// simulation, closing over its own devices and workload sources — and a
// deterministic assembly step that reads the cell results back in
// canonical order. Virtual time is per-simulation, so a cell's outcome
// cannot depend on when or where it runs; fanning cells out over
// goroutines is therefore free of result drift by construction, and the
// rendered tables are byte-identical to a serial run at any parallelism.

// Cell is one independent experiment point. Run builds everything the
// simulation needs (devices, caches, workloads) inside the closure and
// stores the outcome into a result slot owned exclusively by this cell.
type Cell struct {
	// Label identifies the cell in progress output, e.g. "Write/Sel-GC/FIFO".
	Label string
	// Run executes the cell's simulation.
	Run func() error
}

// CellEvent reports one completed cell to an Options.Progress callback.
type CellEvent struct {
	Experiment string        // registry name, e.g. "table8"
	Label      string        // the cell's label
	Index      int           // canonical index of the cell within the experiment
	Total      int           // number of cells in the experiment
	Elapsed    time.Duration // wall-clock simulation time for this cell
	Err        error         // nil on success
}

// runCells executes the cells of one experiment under o.Parallel workers
// (1 = serial). Whatever the scheduling, the reported error is that of the
// lowest-indexed failing cell — the same one a serial run would hit first —
// so error output stays deterministic too.
func (o Options) runCells(exp string, cells []Cell) error {
	workers := o.Parallel
	if workers <= 0 {
		workers = 1
	}
	if workers > len(cells) {
		workers = len(cells)
	}
	if workers <= 1 {
		for i := range cells {
			if err := o.runCell(exp, i, len(cells), &cells[i]); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, len(cells))
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= len(cells) {
					return
				}
				errs[i] = o.runCell(exp, i, len(cells), &cells[i])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runCell runs one cell, timing it and reporting to the progress callback.
func (o Options) runCell(exp string, i, total int, c *Cell) error {
	start := time.Now() //srclint:allow determinism progress timing only, never reaches result tables
	err := c.Run()
	if o.Progress != nil {
		o.Progress(CellEvent{
			Experiment: exp,
			Label:      c.Label,
			Index:      i,
			Total:      total,
			Elapsed:    time.Since(start), //srclint:allow determinism progress timing only
			Err:        err,
		})
	}
	return err
}

// gridCells runs one cell per (row, col) point of a result grid and
// returns the results indexed [row][col], assembled in canonical order
// regardless of scheduling. run must be self-contained (no shared mutable
// state); label names the cell for progress output.
func gridCells[T any](o Options, exp string, rows, cols int,
	label func(r, c int) string, run func(r, c int) (T, error)) ([][]T, error) {
	results := make([][]T, rows)
	cells := make([]Cell, 0, rows*cols)
	for r := 0; r < rows; r++ {
		results[r] = make([]T, cols)
		for c := 0; c < cols; c++ {
			r, c := r, c
			cells = append(cells, Cell{
				Label: label(r, c),
				Run: func() error {
					v, err := run(r, c)
					if err != nil {
						return err
					}
					results[r][c] = v
					return nil
				},
			})
		}
	}
	if err := o.runCells(exp, cells); err != nil {
		return nil, err
	}
	return results, nil
}
