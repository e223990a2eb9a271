package flash

import (
	"errors"
	"testing"
)

func newTestArray(t *testing.T, blocks, pages int, endurance int64) *Array {
	t.Helper()
	a, err := New(Geometry{Blocks: blocks, PagesPerBlock: pages, PageSize: 4096}, endurance)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestGeometryMath(t *testing.T) {
	g := Geometry{Blocks: 10, PagesPerBlock: 256, PageSize: 4096}
	if g.BlockBytes() != 256*4096 {
		t.Fatalf("BlockBytes = %d", g.BlockBytes())
	}
	if g.TotalBytes() != 10*256*4096 {
		t.Fatalf("TotalBytes = %d", g.TotalBytes())
	}
}

func TestNewRejectsInvalidGeometry(t *testing.T) {
	for _, g := range []Geometry{
		{Blocks: 0, PagesPerBlock: 1, PageSize: 1},
		{Blocks: 1, PagesPerBlock: 0, PageSize: 1},
		{Blocks: 1, PagesPerBlock: 1, PageSize: 0},
	} {
		if _, err := New(g, 0); err == nil {
			t.Fatalf("New(%+v) accepted invalid geometry", g)
		}
	}
}

func TestProgramOrderEnforced(t *testing.T) {
	a := newTestArray(t, 2, 4, 0)
	if err := a.Program(0, 0); err != nil {
		t.Fatal(err)
	}
	// Skipping ahead violates program order.
	if err := a.Program(0, 2); !errors.Is(err, ErrProgramOrder) {
		t.Fatalf("skip program err = %v", err)
	}
	// Reprogramming without erase is rejected.
	if err := a.Program(0, 0); !errors.Is(err, ErrNotErased) {
		t.Fatalf("double program err = %v", err)
	}
	if err := a.Program(0, 1); err != nil {
		t.Fatal(err)
	}
}

func TestEraseResetsProgramOrder(t *testing.T) {
	a := newTestArray(t, 1, 2, 0)
	for p := 0; p < 2; p++ {
		if err := a.Program(0, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Erase(0); err != nil {
		t.Fatal(err)
	}
	if err := a.Program(0, 0); err != nil {
		t.Fatalf("program after erase: %v", err)
	}
	blk, err := a.Block(0)
	if err != nil {
		t.Fatal(err)
	}
	if blk.EraseCount != 1 || blk.Programmed != 1 {
		t.Fatalf("block state %+v", blk)
	}
}

func TestWearOutGrowsBadBlock(t *testing.T) {
	a := newTestArray(t, 1, 1, 2)
	if err := a.Erase(0); err != nil {
		t.Fatal(err)
	}
	if err := a.Erase(0); err != nil {
		t.Fatal(err)
	}
	if err := a.Erase(0); !errors.Is(err, ErrWornOut) {
		t.Fatalf("third erase err = %v, want ErrWornOut", err)
	}
	if !a.blocks[0].Bad {
		t.Fatal("worn block not marked bad")
	}
	if err := a.Program(0, 0); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("program on bad block err = %v", err)
	}
	if err := a.Erase(0); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("erase on bad block err = %v", err)
	}
	if err := a.Read(0, 0); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("read on bad block err = %v", err)
	}
}

func TestStatsCounting(t *testing.T) {
	a := newTestArray(t, 2, 4, 0)
	if err := a.Program(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := a.Read(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := a.Erase(0); err != nil {
		t.Fatal(err)
	}
	s := a.Stats()
	if s.PagesProgrammed != 1 || s.PagesRead != 1 || s.Erases != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestOutOfRangeOps(t *testing.T) {
	a := newTestArray(t, 2, 4, 0)
	if err := a.Program(2, 0); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("program err = %v", err)
	}
	if err := a.Read(0, 4); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("read err = %v", err)
	}
	if err := a.Erase(-1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("erase err = %v", err)
	}
	if _, err := a.Block(99); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("block err = %v", err)
	}
}

func TestWearMetrics(t *testing.T) {
	a := newTestArray(t, 4, 1, 0)
	for i := 0; i < 3; i++ {
		if err := a.Erase(0); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Erase(1); err != nil {
		t.Fatal(err)
	}
	if a.blocks[0].EraseCount != 3 || a.blocks[1].EraseCount != 1 {
		t.Fatalf("erase counts %d, %d, want 3, 1", a.blocks[0].EraseCount, a.blocks[1].EraseCount)
	}
	if got := a.MeanEraseCount(); got != 1.0 {
		t.Fatalf("MeanEraseCount = %v, want 1.0", got)
	}
}
