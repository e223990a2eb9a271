package blockdev

import (
	"errors"
	"testing"

	"srccache/internal/vtime"
)

func newPlan() *FaultPlan {
	return NewFaultPlan(NewMemDevice(1<<20, 10*vtime.Microsecond))
}

func TestFaultPlanUnreadable(t *testing.T) {
	f := newPlan()
	write := Request{OpWrite, 0, 4 * PageSize}
	if _, err := f.Submit(0, write); err != nil {
		t.Fatal(err)
	}
	f.InjectUnreadable(2)
	if n := f.UnreadablePages(); n != 1 {
		t.Fatalf("UnreadablePages = %d, want 1", n)
	}
	// A read covering the bad page fails; one beside it succeeds.
	if _, err := f.Submit(0, Request{OpRead, 0, 4 * PageSize}); !errors.Is(err, ErrUnreadable) {
		t.Fatalf("read over latent error: err = %v, want ErrUnreadable", err)
	}
	if _, err := f.Submit(0, Request{OpRead, 0, 2 * PageSize}); err != nil {
		t.Fatalf("read beside latent error: %v", err)
	}
	// Rewriting the page repairs it.
	if _, err := f.Submit(0, Request{OpWrite, 2 * PageSize, PageSize}); err != nil {
		t.Fatal(err)
	}
	if n := f.UnreadablePages(); n != 0 {
		t.Fatalf("UnreadablePages after rewrite = %d, want 0", n)
	}
	if _, err := f.Submit(0, Request{OpRead, 0, 4 * PageSize}); err != nil {
		t.Fatalf("read after repair: %v", err)
	}
	// Trim repairs too.
	f.InjectUnreadable(3)
	if _, err := f.Submit(0, Request{OpTrim, 3 * PageSize, PageSize}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Submit(0, Request{OpRead, 3 * PageSize, PageSize}); err != nil {
		t.Fatalf("read after trim repair: %v", err)
	}
}

func TestFaultPlanTransient(t *testing.T) {
	f := newPlan()
	f.InjectTransient(2)
	req := Request{OpRead, 0, PageSize}
	for i := 0; i < 2; i++ {
		if _, err := f.Submit(0, req); !errors.Is(err, ErrTransient) {
			t.Fatalf("attempt %d: err = %v, want ErrTransient", i, err)
		}
	}
	if _, err := f.Submit(0, req); err != nil {
		t.Fatalf("attempt after transient burst: %v", err)
	}
	if n := f.PendingTransient(); n != 0 {
		t.Fatalf("PendingTransient = %d after the burst, want 0", n)
	}
}

// TestFaultPlanInvalidRequestConsumesNoFaultState checks the determinism
// guard: a malformed request is rejected before any injected fault is
// consumed.
func TestFaultPlanInvalidRequestConsumesNoFaultState(t *testing.T) {
	f := newPlan()
	f.InjectTransient(1)
	if _, err := f.Submit(0, Request{OpRead, 1, PageSize}); !errors.Is(err, ErrUnaligned) {
		t.Fatalf("unaligned request err = %v", err)
	}
	if f.PendingTransient() != 1 {
		t.Fatal("invalid request consumed an injected transient fault")
	}
}
