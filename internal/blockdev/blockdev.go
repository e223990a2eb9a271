// Package blockdev defines the block-device abstraction shared by every
// storage model in the repository: the request vocabulary, the virtual-time
// Device interface, per-device statistics, and a content layer (page tags and
// metadata blobs) with flush/crash semantics used for durability and
// integrity experiments.
//
// Timing and content are deliberately separated. Submit/Flush model *when*
// an operation completes in virtual time; the Content store models *what* is
// durably recorded. This split lets the simulation track correctness
// (mapping tables, parity reconstruction, crash recovery) without holding
// gigabytes of payload bytes in memory.
package blockdev

import (
	"errors"
	"fmt"

	"srccache/internal/vtime"
)

// PageSize is the unit of caching and addressing used throughout the system,
// matching the 4 KB block size used by the paper's prototype.
const PageSize int64 = 4096

// Op identifies the kind of a block request.
type Op uint8

// Supported operations.
const (
	OpRead Op = iota + 1
	OpWrite
	OpTrim
)

// String returns the conventional lower-case name of the operation.
func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpTrim:
		return "trim"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Request is a single block-level I/O: an operation over [Off, Off+Len) in
// bytes. Offsets and lengths are expected to be PageSize-aligned; devices
// validate alignment and return ErrUnaligned otherwise.
type Request struct {
	Op  Op
	Off int64
	Len int64
}

// Pages reports the number of PageSize pages the request spans.
func (r Request) Pages() int64 { return r.Len / PageSize }

// String renders the request for logs and test failures.
func (r Request) String() string {
	return fmt.Sprintf("%s off=%d len=%d", r.Op, r.Off, r.Len)
}

// Validate checks alignment and bounds against a device of the given
// capacity. A request is out of range when Off > capacity-Len, a bound that
// cannot overflow for a positive Len; Off+Len > capacity wraps for an Off
// near the top of int64 and lets the request through. Validate is small
// enough to inline into every device's Submit: a refusal is a requestError,
// which says what is wrong only when asked.
func (r Request) Validate(capacity int64) error {
	if r.Op >= OpRead && r.Op <= OpTrim && (r.Off|r.Len)%PageSize == 0 &&
		r.Len > 0 && r.Off >= 0 && r.Off <= capacity-r.Len {
		return nil
	}
	return &requestError{r, capacity}
}

// requestError is a request Validate refused, with the capacity it was
// checked against. It wraps ErrBadRequest, ErrUnaligned or ErrOutOfRange.
type requestError struct {
	r        Request
	capacity int64
}

// explain describes the first rule the request breaks, and returns the
// error that names the rule.
func (e *requestError) explain() (string, error) {
	r := e.r
	switch {
	case r.Op < OpRead || r.Op > OpTrim:
		return r.Op.String(), ErrBadRequest
	case r.Off%PageSize != 0 || r.Len%PageSize != 0:
		return r.String(), ErrUnaligned
	case r.Len <= 0:
		return fmt.Sprintf("non-positive length %d", r.Len), ErrBadRequest
	default:
		return fmt.Sprintf("%d bytes at %d outside capacity %d", r.Len, r.Off, e.capacity), ErrOutOfRange
	}
}

func (e *requestError) Unwrap() error {
	_, err := e.explain()
	return err
}

func (e *requestError) Error() string {
	msg, err := e.explain()
	return err.Error() + ": " + msg
}

// Errors shared by all device implementations.
var (
	// ErrBadRequest reports a malformed request (unknown op, bad length).
	ErrBadRequest = errors.New("blockdev: bad request")
	// ErrUnaligned reports an offset or length not aligned to PageSize.
	ErrUnaligned = errors.New("blockdev: unaligned request")
	// ErrOutOfRange reports a request outside the device capacity.
	ErrOutOfRange = errors.New("blockdev: request out of range")
	// ErrDeviceFailed reports that the device has been failed by fault
	// injection and cannot serve I/O.
	ErrDeviceFailed = errors.New("blockdev: device failed")
	// ErrUnreadable reports a latent sector error: the addressed range
	// covers a page that cannot be read until it is rewritten. Upper layers
	// repair it from redundancy and write it back.
	ErrUnreadable = errors.New("blockdev: unreadable page")
	// ErrTransient reports a transient device error; retrying the same
	// request (after a short delay) may succeed.
	ErrTransient = errors.New("blockdev: transient device error")
)

// Device is a block device operating in virtual time.
//
// Submit schedules the request as arriving at time at and returns the
// virtual time at which the device acknowledges completion. For writes the
// acknowledgement may precede durability (volatile write caches); Flush
// returns the time at which everything acknowledged so far is durable.
//
// Implementations must tolerate non-decreasing at values across calls; the
// closed-loop engine guarantees this ordering.
type Device interface {
	Submit(at vtime.Time, req Request) (vtime.Time, error)
	Flush(at vtime.Time) (vtime.Time, error)
	Capacity() int64
	Stats() *Stats
	Content() *Content
}

// Stats accumulates traffic counters for one device. All byte counts are
// host-visible (pre-FTL); device-internal amplification is tracked by the
// device models themselves.
type Stats struct {
	ReadOps    int64
	ReadBytes  int64
	WriteOps   int64
	WriteBytes int64
	TrimOps    int64
	TrimBytes  int64
	Flushes    int64
}

// Record tallies one request.
func (s *Stats) Record(req Request) {
	switch req.Op {
	case OpRead:
		s.ReadOps++
		s.ReadBytes += req.Len
	case OpWrite:
		s.WriteOps++
		s.WriteBytes += req.Len
	case OpTrim:
		s.TrimOps++
		s.TrimBytes += req.Len
	}
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.ReadOps += o.ReadOps
	s.ReadBytes += o.ReadBytes
	s.WriteOps += o.WriteOps
	s.WriteBytes += o.WriteBytes
	s.TrimOps += o.TrimOps
	s.TrimBytes += o.TrimBytes
	s.Flushes += o.Flushes
}

// TotalBytes reports read plus write traffic.
func (s *Stats) TotalBytes() int64 { return s.ReadBytes + s.WriteBytes }
