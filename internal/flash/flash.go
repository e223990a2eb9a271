// Package flash models raw NAND flash: blocks of pages with the physical
// constraints real flash imposes — pages program in order within a block, a
// block must be erased before any page is reprogrammed, and blocks wear out
// after a bounded number of program/erase cycles. The SSD FTL
// (internal/ssd) is a client of this package; keeping the physics here lets
// tests assert that the FTL never violates them.
package flash

import (
	"errors"
	"fmt"
)

// Errors reported by the array.
var (
	// ErrProgramOrder reports an out-of-order or double program of a page.
	ErrProgramOrder = errors.New("flash: page program violates in-block order")
	// ErrNotErased reports a program to a block that still holds data.
	ErrNotErased = errors.New("flash: program to unerased page")
	// ErrBadBlock reports an operation on a block marked bad.
	ErrBadBlock = errors.New("flash: operation on bad block")
	// ErrWornOut reports an erase beyond the block's endurance budget.
	ErrWornOut = errors.New("flash: block worn out")
	// ErrOutOfRange reports a block or page index outside the geometry.
	ErrOutOfRange = errors.New("flash: index out of range")
)

// Geometry describes the NAND layout of one device.
type Geometry struct {
	Blocks        int   // number of physical blocks
	PagesPerBlock int   // pages per block (paper: 32–512)
	PageSize      int64 // bytes per page
}

// BlockBytes reports the size of one erase block in bytes.
func (g Geometry) BlockBytes() int64 { return int64(g.PagesPerBlock) * g.PageSize }

// TotalBytes reports the raw capacity of the array.
func (g Geometry) TotalBytes() int64 { return int64(g.Blocks) * g.BlockBytes() }

// BlockState tracks one erase block.
type BlockState struct {
	// Programmed is the number of pages programmed since the last erase;
	// the next programmable page index equals this value.
	Programmed int
	// EraseCount is the lifetime number of erases.
	EraseCount int64
	// Bad marks the block unusable (grown bad: worn out).
	Bad bool
}

// Stats counts lifetime flash operations; the FTL derives write
// amplification and wear from these.
type Stats struct {
	PagesRead       int64
	PagesProgrammed int64
	Erases          int64
}

// Array is one device's worth of NAND flash.
type Array struct {
	geo       Geometry
	endurance int64 // erases per block before ErrWornOut; 0 = unlimited
	blocks    []BlockState
	stats     Stats
}

// New creates an Array with the given geometry and per-block endurance
// budget (0 disables wear-out errors).
func New(geo Geometry, endurance int64) (*Array, error) {
	if geo.Blocks <= 0 || geo.PagesPerBlock <= 0 || geo.PageSize <= 0 {
		return nil, fmt.Errorf("flash: invalid geometry %+v", geo)
	}
	return &Array{
		geo:       geo,
		endurance: endurance,
		blocks:    make([]BlockState, geo.Blocks),
	}, nil
}

// Geometry returns the array geometry.
func (a *Array) Geometry() Geometry { return a.geo }

// Stats returns accumulated operation counters.
func (a *Array) Stats() Stats { return a.stats }

// Block returns the state of block b.
func (a *Array) Block(b int) (BlockState, error) {
	if b < 0 || b >= a.geo.Blocks {
		return BlockState{}, fmt.Errorf("%w: block %d", ErrOutOfRange, b)
	}
	return a.blocks[b], nil
}

// Program writes page p of block b. Pages must be programmed strictly in
// order within an erased block.
func (a *Array) Program(b, p int) error {
	if b < 0 || b >= a.geo.Blocks || p < 0 || p >= a.geo.PagesPerBlock {
		return fmt.Errorf("%w: block %d page %d", ErrOutOfRange, b, p)
	}
	blk := &a.blocks[b]
	if blk.Bad {
		return fmt.Errorf("%w: block %d", ErrBadBlock, b)
	}
	if p != blk.Programmed {
		if p < blk.Programmed {
			return fmt.Errorf("%w: block %d page %d already programmed", ErrNotErased, b, p)
		}
		return fmt.Errorf("%w: block %d page %d, next programmable is %d", ErrProgramOrder, b, p, blk.Programmed)
	}
	blk.Programmed++
	a.stats.PagesProgrammed++
	return nil
}

// Read reads page p of block b. Reading unprogrammed pages is permitted
// (returns erased content in a real device) but still counted.
func (a *Array) Read(b, p int) error {
	if b < 0 || b >= a.geo.Blocks || p < 0 || p >= a.geo.PagesPerBlock {
		return fmt.Errorf("%w: block %d page %d", ErrOutOfRange, b, p)
	}
	if a.blocks[b].Bad {
		return fmt.Errorf("%w: block %d", ErrBadBlock, b)
	}
	a.stats.PagesRead++
	return nil
}

// Erase erases block b, making all its pages programmable again. Once the
// endurance budget is exceeded the block grows bad and ErrWornOut is
// returned; the FTL is expected to retire it.
func (a *Array) Erase(b int) error {
	if b < 0 || b >= a.geo.Blocks {
		return fmt.Errorf("%w: block %d", ErrOutOfRange, b)
	}
	blk := &a.blocks[b]
	if blk.Bad {
		return fmt.Errorf("%w: block %d", ErrBadBlock, b)
	}
	blk.EraseCount++
	blk.Programmed = 0
	a.stats.Erases++
	if a.endurance > 0 && blk.EraseCount > a.endurance {
		blk.Bad = true
		return fmt.Errorf("%w: block %d after %d erases", ErrWornOut, b, blk.EraseCount)
	}
	return nil
}

// AccountCopies records n page copies (read+program) plus the amortized
// erases they imply, without binding them to specific blocks. The FTL's
// hybrid-merge path uses this for data-block rewrites that bypass the
// page-mapped log (per-block wear for that path is tracked in aggregate
// only).
func (a *Array) AccountCopies(n int64) {
	if n <= 0 {
		return
	}
	a.stats.PagesRead += n
	a.stats.PagesProgrammed += n
	a.stats.Erases += (n + int64(a.geo.PagesPerBlock) - 1) / int64(a.geo.PagesPerBlock)
}

// MeanEraseCount reports the average erase count across non-bad blocks.
func (a *Array) MeanEraseCount() float64 {
	var sum int64
	n := 0
	for i := range a.blocks {
		if a.blocks[i].Bad {
			continue
		}
		sum += a.blocks[i].EraseCount
		n++
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}
