// Package use exercises ioerr's bound-but-unread path check.
package use

import (
	"fmt"

	"e/internal/blockdev"
)

func cond() bool { return false }

// checkedEverywhere is the idiom: the error is compared against nil.
func checkedEverywhere(d *blockdev.Dev) error {
	err := d.Submit(0, 1)
	if err != nil {
		return err
	}
	return nil
}

// initChecked binds and reads in the if statement itself.
func initChecked(d *blockdev.Dev) {
	if err := d.Flush(); err != nil {
		panic(err)
	}
}

// neverRead binds the error and discards it with a blank assignment, which
// launders the compiler's unused-variable check but is not a read.
func neverRead(d *blockdev.Dev) int {
	err := d.Submit(0, 1) // want `error from Dev.Submit assigned to err is never read on at least one path`
	_ = err
	return 42
}

// oneBranchUnchecked reads the error on the slow path only; the fast path
// returns with it unread.
func oneBranchUnchecked(d *blockdev.Dev) error {
	err := d.Flush() // want `error from Dev.Flush assigned to err is never read on at least one path`
	if cond() {
		return nil
	}
	return err
}

// overwrittenUnread drops the first error by reassigning before any read.
func overwrittenUnread(d *blockdev.Dev) error {
	err := d.Submit(0, 1) // want `error from Dev.Submit assigned to err is never read on at least one path`
	err = d.Flush()
	if err != nil {
		return err
	}
	return nil
}

// wrapped reads the error by wrapping it: handled, as far as a lint can
// tell.
func wrapped(d *blockdev.Dev) error {
	err := d.Flush()
	return fmt.Errorf("flush: %w", err)
}

// captured reads the error inside a closure; capture counts as a read.
func captured(d *blockdev.Dev) func() error {
	err := d.Submit(0, 1)
	return func() error { return err }
}

// panicPath never reaches exit on the unread path, so nothing leaks.
func panicPath(d *blockdev.Dev) error {
	err := d.Submit(0, 1)
	if cond() {
		panic("unrecoverable")
	}
	return err
}

// multiValue watches the trailing error of a multi-result I/O call.
func multiValue(d *blockdev.Dev, p []byte) int {
	n, err := d.ReadAt(p, 0) // want `error from Dev.ReadAt assigned to err is never read on at least one path`
	_ = err
	return n
}

// allowed documents a deliberate exception via suppression.
func allowed(d *blockdev.Dev) {
	//srclint:allow ioerr best-effort warm-up read, failure is benign
	err := d.Submit(0, 1)
	_ = err
}

// nonContract errors (same shape, non-contract package) are not watched.
type local struct{}

func (local) Submit(lba int64, n int) error { return nil }

func nonContract(l local) int {
	err := l.Submit(0, 1)
	_ = err
	return 0
}
