// Package blockdev is a fixture stand-in for the real device layer: its
// import path ends in internal/blockdev, so its methods fall under the
// I/O-error contract.
package blockdev

type Dev struct{}

func (d *Dev) Submit(lba int64, n int) error           { return nil }
func (d *Dev) Flush() error                            { return nil }
func (d *Dev) ReadAt(p []byte, off int64) (int, error) { return 0, nil }
