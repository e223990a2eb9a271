package blockdev

import (
	"fmt"

	"srccache/internal/vtime"
)

// FaultPlan wraps a Device with the fault models the chaos harness and the
// tests inject, all explicit, so a fault sequence is a pure function of the
// calls that inject it:
//
//   - fail-stop: after Fail, every operation returns ErrDeviceFailed until
//     Repair.
//   - latent sector errors: individual pages marked unreadable
//     (InjectUnreadable) make any read covering them return ErrUnreadable.
//     Rewriting or trimming the page clears the mark, which is how a
//     parity-repair write-back "reallocates" the sector.
//   - transient errors: the next N submissions fail with ErrTransient
//     (InjectTransient) and then succeed — the retryable hiccups an error
//     budget counts.
type FaultPlan struct {
	inner Device

	failed        bool
	transientLeft int
	unreadable    map[int64]struct{}
}

var _ Device = (*FaultPlan)(nil)

// NewFaultPlan wraps dev; it behaves like dev until a fault is injected.
func NewFaultPlan(dev Device) *FaultPlan {
	return &FaultPlan{inner: dev, unreadable: make(map[int64]struct{})}
}

// Fail makes subsequent operations error with ErrDeviceFailed.
func (f *FaultPlan) Fail() { f.failed = true }

// Repair restores service after a fail-stop. Content of the underlying
// device is retained; callers that model drive replacement should also
// reset content.
func (f *FaultPlan) Repair() { f.failed = false }

// Failed reports whether the device is currently failed.
func (f *FaultPlan) Failed() bool { return f.failed }

// InjectUnreadable marks pages (by page index) as latent sector errors:
// reads covering them fail with ErrUnreadable until they are rewritten or
// trimmed.
func (f *FaultPlan) InjectUnreadable(pages ...int64) {
	for _, p := range pages {
		f.unreadable[p] = struct{}{}
	}
}

// Unreadable reports whether page has an outstanding latent sector error.
func (f *FaultPlan) Unreadable(page int64) bool {
	_, bad := f.unreadable[page]
	return bad
}

// UnreadablePages reports how many latent sector errors remain outstanding.
func (f *FaultPlan) UnreadablePages() int { return len(f.unreadable) }

// InjectTransient makes the next n submissions fail with ErrTransient.
func (f *FaultPlan) InjectTransient(n int) { f.transientLeft += n }

// PendingTransient reports how many explicitly injected transient faults
// have not yet been consumed by submissions.
func (f *FaultPlan) PendingTransient() int { return f.transientLeft }

// Submit forwards to the wrapped device, applying the fault plan. A
// malformed request is rejected before any fault state is consumed, so an
// invalid call cannot perturb the fault sequence.
func (f *FaultPlan) Submit(at vtime.Time, req Request) (vtime.Time, error) {
	if err := req.Validate(f.inner.Capacity()); err != nil {
		return at, err
	}
	if f.failed {
		return at, ErrDeviceFailed
	}
	if f.transientLeft > 0 {
		f.transientLeft--
		return at, fmt.Errorf("%w: injected (%v)", ErrTransient, req.Op)
	}
	first := req.Off / PageSize
	switch req.Op {
	case OpRead:
		if len(f.unreadable) > 0 {
			for p := first; p < first+req.Pages(); p++ {
				if _, bad := f.unreadable[p]; bad {
					return at, fmt.Errorf("%w: page %d", ErrUnreadable, p)
				}
			}
		}
	case OpWrite, OpTrim:
		// Rewriting (or erasing) a latent-error sector reallocates it.
		if len(f.unreadable) > 0 {
			for p := first; p < first+req.Pages(); p++ {
				delete(f.unreadable, p)
			}
		}
	}
	return f.inner.Submit(at, req)
}

// Flush forwards to the wrapped device unless failed.
func (f *FaultPlan) Flush(at vtime.Time) (vtime.Time, error) {
	if f.failed {
		return at, ErrDeviceFailed
	}
	return f.inner.Flush(at)
}

// Capacity reports the wrapped device's capacity.
func (f *FaultPlan) Capacity() int64 { return f.inner.Capacity() }

// Stats reports the wrapped device's statistics.
func (f *FaultPlan) Stats() *Stats { return f.inner.Stats() }

// Content exposes the wrapped device's content store.
func (f *FaultPlan) Content() *Content { return f.inner.Content() }
